package cloud

import (
	"math/rand"
	"testing"

	"memca/internal/memmodel"
)

// campaignHost returns a host running the target VM "mysql".
func campaignHost(t *testing.T) *memmodel.Host {
	t.Helper()
	h, err := memmodel.NewHost(memmodel.XeonE5_2603v3())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVM(memmodel.VM{ID: "mysql"}); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCoLocationCampaignValidation(t *testing.T) {
	h := campaignHost(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := RunCoLocationCampaign(nil, DefaultCoLocationCampaign(), h, "adv", "mysql"); err == nil {
		t.Error("nil rng accepted")
	}
	bad := DefaultCoLocationCampaign()
	bad.SuccessProbability = 0
	if _, err := RunCoLocationCampaign(rng, bad, h, "adv", "mysql"); err == nil {
		t.Error("zero probability accepted")
	}
	bad = DefaultCoLocationCampaign()
	bad.CostPerAttempt = -1
	if _, err := RunCoLocationCampaign(rng, bad, h, "adv", "mysql"); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := RunCoLocationCampaign(rng, DefaultCoLocationCampaign(), h, "adv", "ghost"); err == nil {
		t.Error("unplaced target accepted")
	}
}

func TestCoLocationCampaignSucceedsAndPlaces(t *testing.T) {
	h := campaignHost(t)
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultCoLocationCampaign()
	out, err := RunCoLocationCampaign(rng, cfg, h, "adv", "mysql")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Succeeded {
		t.Fatalf("campaign failed in %d attempts at p=%v", out.Attempts, cfg.SuccessProbability)
	}
	if out.Cost != float64(out.Attempts)*cfg.CostPerAttempt {
		t.Errorf("cost %v for %d attempts at %v each", out.Cost, out.Attempts, cfg.CostPerAttempt)
	}
	if _, err := h.VM("adv"); err != nil {
		t.Errorf("adversary not placed on the target's host: %v", err)
	}
}

func TestCoLocationCampaignCostMatchesPaperRange(t *testing.T) {
	// Expected cost = CostPerAttempt / p. Over many campaigns at the
	// paper's parameters the mean cost should land inside the measured
	// $0.137-$5.304 range.
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultCoLocationCampaign()
	total := 0.0
	const runs = 2000
	for i := 0; i < runs; i++ {
		h := campaignHost(t)
		out, err := RunCoLocationCampaign(rng, cfg, h, "adv", "mysql")
		if err != nil {
			t.Fatal(err)
		}
		total += out.Cost
	}
	mean := total / runs
	want := cfg.CostPerAttempt / cfg.SuccessProbability
	if mean < want*0.9 || mean > want*1.1 {
		t.Errorf("mean cost %v, want ~%v (geometric)", mean, want)
	}
	if mean < 0.137 || mean > 5.304 {
		t.Errorf("mean cost $%.3f outside the paper's measured range", mean)
	}
}

func TestCoLocationCampaignBounded(t *testing.T) {
	h := campaignHost(t)
	rng := rand.New(rand.NewSource(1))
	cfg := CoLocationCampaignConfig{SuccessProbability: 1e-9, CostPerAttempt: 1, MaxAttempts: 5}
	out, err := RunCoLocationCampaign(rng, cfg, h, "adv", "mysql")
	if err != nil {
		t.Fatal(err)
	}
	if out.Succeeded {
		t.Error("campaign at p=1e-9 should fail")
	}
	if out.Attempts != 5 {
		t.Errorf("attempts = %d, want capped 5", out.Attempts)
	}
	if _, err := h.VM("adv"); err == nil {
		t.Error("failed campaign still placed the adversary")
	}
}
