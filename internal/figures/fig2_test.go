package figures

import (
	"slices"
	"testing"
	"time"

	"memca/internal/core"
	"memca/internal/sweep"
)

// TestFig2EnvIdentity is the oracle behind Figure 2's single run: under
// the memory-lock attack the lock factor scales the victim's own demand,
// so the host's bus bandwidth, core count and LLC never reach it and the
// EC2 and private-cloud runs are one modelled run. If a model change
// ever makes the clouds differ, this fails instead of fig2 silently
// drawing one cloud twice.
func TestFig2EnvIdentity(t *testing.T) {
	run := func(env core.Env, seed int64) *core.Report {
		t.Helper()
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.Env = env
		cfg.Duration = Options{Quick: true}.duration(3 * time.Minute)
		x, err := core.NewExperiment(cfg)
		if err != nil {
			t.Fatalf("%v seed %d: %v", env, seed, err)
		}
		defer x.Close()
		rep, err := x.Run()
		if err != nil {
			t.Fatalf("%v seed %d run: %v", env, seed, err)
		}
		return rep
	}
	for i := 0; i < 3; i++ {
		seed := sweep.DeriveSeed(1, i)
		ec2, private := run(core.EnvEC2, seed), run(core.EnvPrivateCloud, seed)
		if ec2.Client.P95 != private.Client.P95 || ec2.Client.P98 != private.Client.P98 {
			t.Errorf("seed %d: client p95/p98 %v/%v on ec2, %v/%v on private cloud",
				seed, ec2.Client.P95, ec2.Client.P98, private.Client.P95, private.Client.P98)
		}
		if !slices.Equal(ec2.ClientCurve, private.ClientCurve) {
			t.Errorf("seed %d: client curves differ between clouds", seed)
		}
		if len(ec2.Tiers) != len(private.Tiers) {
			t.Fatalf("seed %d: %d tiers on ec2, %d on private cloud", seed, len(ec2.Tiers), len(private.Tiers))
		}
		for j, tier := range ec2.Tiers {
			other := private.Tiers[j]
			if tier.Name != other.Name || !slices.Equal(tier.Curve, other.Curve) ||
				tier.Summary.P95 != other.Summary.P95 || tier.Summary.P98 != other.Summary.P98 {
				t.Errorf("seed %d: tier %s differs between clouds", seed, tier.Name)
			}
		}
	}
}
