package cloud

import (
	"fmt"
	"math/rand"

	"memca/internal/memmodel"
)

// CoLocationCampaignConfig models the adversary's placement step (Section
// II-B): repeatedly launching probe VMs until one lands on the target's
// host. The paper cites Varadarajan et al.'s measured economics: success
// probability per placement round between 0.6 and 0.89, total cost between
// $0.137 and $5.304.
type CoLocationCampaignConfig struct {
	// SuccessProbability is the chance one placement round co-locates.
	SuccessProbability float64
	// CostPerAttempt is the dollar cost of one probe VM round (instance
	// time plus verification traffic).
	CostPerAttempt float64
	// MaxAttempts bounds the campaign; 0 means unbounded.
	MaxAttempts int
}

// DefaultCoLocationCampaign returns the midpoint of the measured range.
//
//memca:keep regenerates experiment E13 at the midpoint of the paper's measured range (EXPERIMENTS.md)
func DefaultCoLocationCampaign() CoLocationCampaignConfig {
	return CoLocationCampaignConfig{
		SuccessProbability: 0.75,
		CostPerAttempt:     0.8,
		MaxAttempts:        20,
	}
}

// Validate reports the first configuration error, or nil.
func (c CoLocationCampaignConfig) Validate() error {
	if c.SuccessProbability <= 0 || c.SuccessProbability > 1 {
		return fmt.Errorf("cloud: SuccessProbability must be in (0,1], got %v", c.SuccessProbability)
	}
	if c.CostPerAttempt < 0 {
		return fmt.Errorf("cloud: CostPerAttempt must be non-negative, got %v", c.CostPerAttempt)
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("cloud: MaxAttempts must be non-negative, got %d", c.MaxAttempts)
	}
	return nil
}

// CoLocationOutcome summarizes one campaign.
type CoLocationOutcome struct {
	// Succeeded reports whether a probe VM landed on the target host.
	Succeeded bool
	// Attempts is how many placement rounds ran.
	Attempts int
	// Cost is the total dollars spent.
	Cost float64
}

// RunCoLocationCampaign simulates the placement step: geometric trials at
// the configured success probability. On success it places the adversary
// VM on host, the target VM's host.
//
//memca:keep regenerates experiment E13, the co-location campaign (EXPERIMENTS.md)
func RunCoLocationCampaign(rng *rand.Rand, cfg CoLocationCampaignConfig, host *memmodel.Host, adversaryID, targetVMID string) (CoLocationOutcome, error) {
	if rng == nil {
		return CoLocationOutcome{}, fmt.Errorf("cloud: rng must not be nil")
	}
	if err := cfg.Validate(); err != nil {
		return CoLocationOutcome{}, err
	}
	if _, err := host.VM(targetVMID); err != nil {
		return CoLocationOutcome{}, fmt.Errorf("cloud: campaign target: %w", err)
	}
	out := CoLocationOutcome{}
	for {
		out.Attempts++
		out.Cost += cfg.CostPerAttempt
		if rng.Float64() < cfg.SuccessProbability {
			out.Succeeded = true
			break
		}
		if cfg.MaxAttempts > 0 && out.Attempts >= cfg.MaxAttempts {
			break
		}
	}
	if !out.Succeeded {
		return out, nil
	}
	if _, err := host.AddVM(memmodel.VM{ID: adversaryID}); err != nil {
		return out, fmt.Errorf("cloud: campaign placement: %w", err)
	}
	return out, nil
}
