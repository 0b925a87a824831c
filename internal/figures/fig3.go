package figures

import (
	"fmt"
	"strconv"
	"strings"

	"memca/internal/memmodel"
	"memca/internal/stats"
)

// Fig3Result captures Figure 3: available memory bandwidth per co-located
// VM versus VM count, placement, and attack type.
type Fig3Result struct {
	// Curves maps "<placement>/<attack>" to per-VM MB/s for 1..6 VMs.
	Curves map[string][]float64
	// SingleVMSaturates reports whether one VM saturated the bus
	// (the paper's finding 1 says it must not).
	SingleVMSaturates bool
	// LockBelowSaturation reports finding 3: the lock attack leaves
	// every VM less bandwidth than bus saturation does, at every count.
	LockBelowSaturation bool
}

func init() {
	registerDist(DistDriver{Name: "fig3", New: newFig3Run})
}

// fig3Record is one (placement, attack) curve: per-VM MB/s for 1..6 VMs.
type fig3Record struct {
	PerVMMBps []float64
}

// newFig3Run prepares the Figure 3 driver: one memory-model sweep of
// 1-6 co-located VMs per {same, random} package placement and
// {bus-saturation, memory-lock} attack on the private-cloud host.
func newFig3Run(opts Options) (*DistRun, error) {
	cfg := memmodel.XeonE5_2603v3()
	const maxVMs = 6
	type variant struct {
		placement memmodel.PlacementMode
		kind      memmodel.AttackKind
	}
	variants := []variant{
		{memmodel.PlacementSamePackage, memmodel.AttackBusSaturation},
		{memmodel.PlacementSamePackage, memmodel.AttackMemoryLock},
		{memmodel.PlacementRandomPackage, memmodel.AttackBusSaturation},
		{memmodel.PlacementRandomPackage, memmodel.AttackMemoryLock},
	}
	keys := make([]string, len(variants))
	for i, v := range variants {
		keys[i] = v.placement.String() + "/" + v.kind.String()
	}
	return newRun(len(variants), func(_ *stats.Arena, i int) (fig3Record, error) {
		v := variants[i]
		points, err := memmodel.Sweep(memmodel.ProfileSpec{
			Host: cfg, VMs: maxVMs, Placement: v.placement, Kind: v.kind, LockDuty: 1.0,
		})
		if err != nil {
			return fig3Record{}, fmt.Errorf("figures: fig3 %s: %w", keys[i], err)
		}
		rec := fig3Record{PerVMMBps: make([]float64, 0, maxVMs)}
		for _, p := range points {
			rec.PerVMMBps = append(rec.PerVMMBps, p.PerVMMBps)
		}
		return rec, nil
	}, func(recs []fig3Record) (any, string, error) {
		res := &Fig3Result{Curves: make(map[string][]float64), LockBelowSaturation: true}
		var lines []string
		for i, rec := range recs {
			if len(rec.PerVMMBps) != maxVMs {
				return nil, "", fmt.Errorf("figures: fig3 %s record has %d points, want %d", keys[i], len(rec.PerVMMBps), maxVMs)
			}
			res.Curves[keys[i]] = rec.PerVMMBps
			lines = append(lines, fmt.Sprintf("%-32s %.0f -> %.0f MB/s per VM (1 -> 6 VMs)",
				keys[i], rec.PerVMMBps[0], rec.PerVMMBps[maxVMs-1]))
		}

		// Finding 1: one VM alone under bus-saturation placement does not
		// reach the bus capacity.
		single := res.Curves["same-package/bus-saturation"][0]
		res.SingleVMSaturates = single >= cfg.BusBandwidthMBps

		// Finding 3 across both placements and all VM counts.
		for _, placement := range []string{"same-package", "random-package"} {
			sat := res.Curves[placement+"/bus-saturation"]
			lock := res.Curves[placement+"/memory-lock"]
			for k := 0; k < maxVMs; k++ {
				if lock[k] >= sat[k] {
					res.LockBelowSaturation = false
				}
			}
		}

		header := append([]string{"vms"}, keys...)
		rows := make([][]string, 0, maxVMs)
		for k := 0; k < maxVMs; k++ {
			row := []string{strconv.Itoa(k + 1)}
			for _, key := range keys {
				row = append(row, strconv.FormatFloat(res.Curves[key][k], 'f', 1, 64))
			}
			rows = append(rows, row)
		}
		if err := opts.writeCSV("fig3_bandwidth.csv", header, rows); err != nil {
			return nil, "", err
		}
		lines = append(lines,
			fmt.Sprintf("single VM saturates bus: %v (paper: no)", res.SingleVMSaturates),
			fmt.Sprintf("lock stronger than saturation everywhere: %v (paper: yes)", res.LockBelowSaturation))
		return res, strings.Join(lines, "\n"), nil
	}), nil
}
