// Stealth: why the cloud never sees MemCA coming. Runs the attack with a
// live auto-scaling group attached to the victim tier and shows the same
// CPU signal through 1-minute (CloudWatch), 1-second, and 50-millisecond
// monitoring — plus the contrast case of a brute-force sustained attack
// that DOES trip the scaler.
//
//	go run ./examples/stealth
package main

import (
	"fmt"
	"os"
	"time"

	"memca"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stealth:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("== MemCA: 500ms bursts every 2s, live 85%/1-min auto scaler attached ==")
	cfg := memca.DefaultConfig()
	cfg.Duration = 4 * time.Minute
	cfg.Scaling = &memca.ScalingSpec{Trigger: memca.DefaultAutoScaler(), MaxInstances: 4}
	rep, err := runOne(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("scale events: %d, fleet size: %d  -> elasticity bypassed while p95 = %v\n\n",
		len(rep.ScaleEvents), rep.Instances, rep.Client.P95.Round(time.Millisecond))

	fmt.Println("== contrast: brute-force attack (sustained 90% duty) ==")
	brute := cfg
	brute.Attack = &memca.AttackSpec{
		Kind: memca.AttackMemoryLock,
		Params: memca.AttackParams{
			Intensity:   1,
			BurstLength: 1800 * time.Millisecond,
			Interval:    2 * time.Second,
		},
		AdversaryVMs: 1,
	}
	bruteRep, err := runOne(brute)
	if err != nil {
		return err
	}
	fmt.Printf("scale events: %d, fleet size: %d  -> a sustained attack is seen and absorbed\n",
		len(bruteRep.ScaleEvents), bruteRep.Instances)
	return nil
}

func runOne(cfg memca.Config) (*memca.Report, error) {
	x, err := memca.NewExperiment(cfg)
	if err != nil {
		return nil, err
	}
	defer x.Close()
	rep, err := x.Run()
	if err != nil {
		return nil, err
	}
	for _, v := range rep.VictimUtilization {
		fmt.Printf("mysql CPU @ %-8v mean %5.1f%%  max %5.1f%%\n", v.Granularity, v.Mean*100, v.Max*100)
	}
	return rep, nil
}
