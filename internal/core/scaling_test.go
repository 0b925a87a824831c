package core

import (
	"math"
	"testing"
	"time"

	"memca/internal/monitor"
)

// TestScalingGroupMatchesOfflineTrigger holds the live Auto Scaling group
// to the offline trigger: replaying monitor.AutoScaler over the run's own
// victim utilization must reproduce every scale-out the live group took,
// at the same instant (shifted by the warm-up) and with the same period
// average. The run is flash-crowd shaped so that the trigger fires.
func TestScalingGroupMatchesOfflineTrigger(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Attack = nil
		cfg.Duration = 5 * time.Minute
		cfg.Scaling = &ScalingSpec{
			Trigger:        monitor.DefaultAutoScaler(),
			MaxInstances:   4,
			ProvisionDelay: 30 * time.Second,
		}
		x, err := NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engine := x.Engine()
		engine.At(cfg.Warmup+30*time.Second, func() { x.Generator().SetPopulation(cfg.Clients*2, 5*time.Second) })
		engine.At(cfg.Warmup+210*time.Second, func() { x.Generator().SetPopulation(cfg.Clients, 0) })
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		net := x.Network()
		source := func(from, to time.Duration) float64 {
			u, err := net.TierUtilization(2, cfg.Warmup+from, cfg.Warmup+to)
			if err != nil {
				t.Fatal(err)
			}
			return u
		}
		scaler, err := monitor.NewAutoScaler(cfg.Scaling.Trigger)
		if err != nil {
			t.Fatal(err)
		}
		offline, err := scaler.Evaluate(source, cfg.Duration)
		x.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.ScaleEvents) == 0 {
			t.Fatalf("seed %d: the flash crowd fired no scale-out", seed)
		}
		if len(offline) != len(rep.ScaleEvents) {
			t.Fatalf("seed %d: offline trigger fired %d times, live group %d (%v vs %v)",
				seed, len(offline), len(rep.ScaleEvents), offline, rep.ScaleEvents)
		}
		for i, ev := range rep.ScaleEvents {
			want := offline[i]
			if ev.At-cfg.Warmup != want.At || math.Float64bits(ev.Utilization) != math.Float64bits(want.Utilization) {
				t.Errorf("seed %d event %d: live {%v, %v}, offline {%v, %v}",
					seed, i, ev.At-cfg.Warmup, ev.Utilization, want.At, want.Utilization)
			}
		}
	}
}
