package figures

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"memca/internal/monitor"
)

func quickOpts(t *testing.T) Options {
	t.Helper()
	return Options{OutDir: t.TempDir(), Quick: true, Seed: 1}
}

func requireFiles(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("artifact %s missing: %v", name, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
}

func TestFig2(t *testing.T) {
	opts := quickOpts(t)
	res, err := Fig2(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range []string{"ec2", "private-cloud"} {
		if res.ClientP95[env] < time.Second {
			t.Errorf("%s client p95 = %v, want > 1s (paper's damage goal)", env, res.ClientP95[env])
		}
		if res.ClientP98[env] < res.ClientP95[env] {
			t.Errorf("%s p98 below p95", env)
		}
	}
	if !res.AmplificationOK {
		t.Error("per-tier amplification ordering violated")
	}
	requireFiles(t, opts.OutDir, "fig2_ec2.csv", "fig2_private-cloud.csv")
}

func TestFig3(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*Fig3Result]("fig3", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SingleVMSaturates {
		t.Error("finding 1 violated: a single VM saturated the bus")
	}
	if !res.LockBelowSaturation {
		t.Error("finding 3 violated: lock attack not stronger than saturation")
	}
	// Finding 2: monotone decrease in per-VM bandwidth.
	for key, curve := range res.Curves {
		for i := 1; i < len(curve); i++ {
			if curve[i] > curve[i-1]+1e-9 {
				t.Errorf("%s: per-VM bandwidth increased at %d VMs", key, i+1)
			}
		}
	}
	// Random-package degradation is milder than same-package at 6 VMs.
	if res.Curves["random-package/bus-saturation"][5] <= res.Curves["same-package/bus-saturation"][5] {
		t.Error("random-package placement did not soften degradation")
	}
	requireFiles(t, opts.OutDir, "fig3_bandwidth.csv")
}

func TestFig6(t *testing.T) {
	opts := quickOpts(t)
	res, err := Fig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Tandem: queued work accumulates only at the bottleneck.
	if res.TandemMySQLMax < 50 {
		t.Errorf("tandem MySQL max occupancy %v, want large accumulation", res.TandemMySQLMax)
	}
	if res.TandemUpstreamMax > 25 {
		t.Errorf("tandem upstream occupancy %v, want small", res.TandemUpstreamMax)
	}
	// RPC: overflow propagates to every tier, back to front.
	if !res.RPCFilled {
		t.Fatalf("RPC queues did not all fill: %v", res.RPCFillOrder)
	}
	if !(res.RPCFillOrder[2] <= res.RPCFillOrder[1] && res.RPCFillOrder[1] <= res.RPCFillOrder[0]) {
		t.Errorf("overflow not back-to-front: %v", res.RPCFillOrder)
	}
	requireFiles(t, opts.OutDir, "fig6_tandem.csv", "fig6_rpc.csv")
}

func TestFig7(t *testing.T) {
	opts := quickOpts(t)
	res, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	tandem := res.Cases[Fig7Tandem]
	infFront := res.Cases[Fig7InfiniteFront]
	finite := res.Cases[Fig7Finite]

	// (a) Tandem: client and MySQL tails nearly coincide (queueing
	// happens at the bottleneck only).
	if tandem.SpreadP99 > tandem.MySQLP99/2 {
		t.Errorf("tandem spread %v not small vs mysql p99 %v", tandem.SpreadP99, tandem.MySQLP99)
	}
	if tandem.Drops != 0 {
		t.Errorf("tandem with infinite queues dropped %d", tandem.Drops)
	}
	// (b) Cross-tier overflow amplifies the client tail past MySQL's.
	if infFront.SpreadP99 <= tandem.SpreadP99 {
		t.Errorf("infinite-front spread %v not above tandem %v", infFront.SpreadP99, tandem.SpreadP99)
	}
	if infFront.Drops != 0 {
		t.Errorf("infinite front queue dropped %d", infFront.Drops)
	}
	// (c) Finite queues: drops + retransmissions push the client peak
	// beyond case (b).
	if finite.Drops == 0 {
		t.Error("finite case produced no drops")
	}
	if finite.ClientP99 < time.Second {
		t.Errorf("finite client p99 %v, want >= 1s (TCP retransmission)", finite.ClientP99)
	}
	if finite.ClientP99 <= infFront.ClientP99 {
		t.Errorf("finite client p99 %v not above infinite-front %v", finite.ClientP99, infFront.ClientP99)
	}
	requireFiles(t, opts.OutDir, "fig7_tandem.csv", "fig7_infinite-front.csv", "fig7_finite.csv")
}

func TestFig8(t *testing.T) {
	opts := quickOpts(t)
	opts.Quick = false // the controller needs its full convergence runway
	res, err := runAs[*Fig8Result]("fig8", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions < 20 {
		t.Errorf("only %d decisions", res.Decisions)
	}
	if !res.GoalReached {
		t.Errorf("controller never reached the goal: final tail %v", res.FinalTailRT)
	}
	if res.SustainedFraction < 0.6 {
		t.Errorf("damage not sustained after convergence: %v", res.SustainedFraction)
	}
	if !res.StealthHeld {
		t.Errorf("stealth bound violated: burst %v", res.FinalParams.BurstLength)
	}
	requireFiles(t, opts.OutDir, "fig8_controller.csv")
}

func TestFig9(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*Fig9Result]("fig9", opts)
	if err != nil {
		t.Fatal(err)
	}
	// 8-second window at I=2s: 4 bursts.
	if res.BurstsInWindow < 3 || res.BurstsInWindow > 5 {
		t.Errorf("bursts in window = %d, want ~4", res.BurstsInWindow)
	}
	if !res.MySQLSaturated {
		t.Error("no transient MySQL CPU saturation at 50ms granularity")
	}
	if !res.QueuePropagated {
		t.Error("queue propagation not visible across tiers")
	}
	if res.MaxClientRT < time.Second {
		t.Errorf("max client RT %v, want >= 1s", res.MaxClientRT)
	}
	requireFiles(t, opts.OutDir,
		"fig9a_attack_bursts.csv", "fig9b_mysql_cpu.csv", "fig9c_queues.csv", "fig9d_client_rt.csv")
}

func TestFig10(t *testing.T) {
	opts := quickOpts(t)
	res, err := Fig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoScalingTriggered {
		t.Error("MemCA triggered the offline auto-scaling evaluation")
	}
	if res.ScaleEventsLive != 0 {
		t.Errorf("live scaling group fired %d times", res.ScaleEventsLive)
	}
	coarseMax := res.MaxByGranularity[monitor.GranularityCloud]
	fineMax := res.MaxByGranularity[monitor.GranularityFine]
	if coarseMax > 0.85 {
		t.Errorf("1-min max utilization %v above the scaling threshold", coarseMax)
	}
	if fineMax < 0.99 {
		t.Errorf("50ms max utilization %v, want saturation visible", fineMax)
	}
	if res.MeanCoarse < 0.4 || res.MeanCoarse > 0.85 {
		t.Errorf("coarse mean %v, want moderate", res.MeanCoarse)
	}
	requireFiles(t, opts.OutDir, "fig10a_cpu_1min.csv", "fig10b_cpu_1s.csv", "fig10c_cpu_50ms.csv")
}

func TestFig11(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*Fig11Result]("fig11", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SaturationPeriodicity < 0.3 {
		t.Errorf("bus-saturation LLC periodicity %v, want visible pattern (> 0.3)", res.SaturationPeriodicity)
	}
	if res.LockPeriodicity > 0.3 {
		t.Errorf("memory-lock LLC periodicity %v, want no pattern (< 0.3)", res.LockPeriodicity)
	}
	if res.SaturationPeriodicity <= res.LockPeriodicity {
		t.Error("saturation pattern not stronger than lock pattern")
	}
	if res.LockAdversaryMaxMisses > 1e5 {
		t.Errorf("locking adversary misses %v, want invisible to profiler", res.LockAdversaryMaxMisses)
	}
	requireFiles(t, opts.OutDir,
		"fig11a_llc_saturation.csv", "fig11b_llc_lock.csv")
}

func TestTable1(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*Table1Result]("table1", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Prediction.QueuesAllFill {
		t.Error("default attack should fill all queues analytically")
	}
	if res.Prediction.Impact <= 0 {
		t.Errorf("impact %v, want positive", res.Prediction.Impact)
	}
	if res.Prediction.Millibottleneck >= time.Second {
		t.Errorf("millibottleneck %v, want sub-second (stealth)", res.Prediction.Millibottleneck)
	}
	if !res.PlannedOK {
		t.Error("inverse planning failed for the paper's goal")
	}
	requireFiles(t, opts.OutDir, "table1_model.csv", "table1_prediction.csv")
}
