package figures

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"memca/internal/core"
	"memca/internal/stats"
)

// Fig2Result captures Figure 2 (the "fig2" driver's result): per-tier
// percentile response times of the 3-tier system under MemCA, drawn for
// both cloud environments from one run.
type Fig2Result struct {
	// ClientP95 and ClientP98 are the headline damage numbers per
	// environment. Both environments are one modelled run (see fig2Envs),
	// so their entries are equal.
	ClientP95 map[string]time.Duration
	ClientP98 map[string]time.Duration
	// AmplificationOK reports that the p95 ordering client >= apache >=
	// tomcat >= mysql held (within a small mix-dilution tolerance).
	AmplificationOK bool
}

// fig2Tier is one tier's slice of the fig2 job record.
type fig2Tier struct {
	Name  string
	Curve []time.Duration
	P95   time.Duration
}

// fig2Record is the job record: everything Finalize needs to write the
// CSVs and judge amplification. Like every record it holds plain values
// only (the record codec refuses maps), so it encodes to stable bytes.
type fig2Record struct {
	ClientP95   time.Duration
	ClientP98   time.Duration
	ClientCurve []time.Duration
	Tiers       []fig2Tier
}

func init() {
	registerDist(DistDriver{Name: "fig2", New: newFig2Run})
}

// fig2Envs are the cloud environments Figure 2 draws, one CSV each. One
// run draws both: the memory-lock attack scales the victim's own demand
// by the lock factor, so the host's bus bandwidth, core count and LLC
// never reach the victim, and the EC2 and private-cloud runs are
// identical (TestFig2EnvIdentity).
var fig2Envs = []core.Env{core.EnvEC2, core.EnvPrivateCloud}

// newFig2Run prepares the Figure 2 driver: one job running the paper's
// headline experiment — the 3-minute RUBBoS run under the memory-lock
// MemCA attack (I = 2 s, L = 500 ms) — whose record is written as every
// environment's CSV (fig2Envs).
func newFig2Run(opts Options) (*DistRun, error) {
	job := func(a *stats.Arena, _ int) (fig2Record, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Duration = opts.duration(3 * time.Minute)
		cfg.Arena = a // the Report holds only heap copies; see core.Config
		x, err := core.NewExperiment(cfg)
		if err != nil {
			return fig2Record{}, fmt.Errorf("figures: fig2: %w", err)
		}
		rep, err := x.Run()
		if err != nil {
			return fig2Record{}, fmt.Errorf("figures: fig2 run: %w", err)
		}
		rec := fig2Record{
			ClientP95:   rep.Client.P95,
			ClientP98:   rep.Client.P98,
			ClientCurve: rep.ClientCurve,
			Tiers:       make([]fig2Tier, 0, len(rep.Tiers)),
		}
		for _, t := range rep.Tiers {
			rec.Tiers = append(rec.Tiers, fig2Tier{Name: t.Name, Curve: t.Curve, P95: t.Summary.P95})
		}
		return rec, nil
	}
	finalize := func(recs []fig2Record) (any, string, error) {
		rec := recs[0]
		if len(rec.Tiers) != 3 {
			return nil, "", fmt.Errorf("figures: fig2 record has %d tiers, want 3", len(rec.Tiers))
		}
		tol := 5 * time.Millisecond
		apache, tomcat, mysql := rec.Tiers[0].P95, rec.Tiers[1].P95, rec.Tiers[2].P95
		res := &Fig2Result{
			ClientP95:       make(map[string]time.Duration, len(fig2Envs)),
			ClientP98:       make(map[string]time.Duration, len(fig2Envs)),
			AmplificationOK: mysql <= tomcat+tol && tomcat <= apache+tol && apache <= rec.ClientP95+tol,
		}

		names := append(make([]string, 0, 1+len(rec.Tiers)), "client")
		curves := append(make([][]time.Duration, 0, 1+len(rec.Tiers)), rec.ClientCurve)
		for _, t := range rec.Tiers {
			names, curves = append(names, t.Name), append(curves, t.Curve)
		}
		lines := make([]string, 0, len(fig2Envs)+1)
		for _, env := range fig2Envs {
			name := env.String()
			res.ClientP95[name] = rec.ClientP95
			res.ClientP98[name] = rec.ClientP98
			if err := writeCurves(opts.path("fig2_"+name+".csv"), core.FigurePercentiles, names, curves); err != nil {
				return nil, "", err
			}
			lines = append(lines, padRight(name, 14)+" client p95 = "+
				padRight(rec.ClientP95.Round(time.Millisecond).String(), 8)+
				" p98 = "+rec.ClientP98.Round(time.Millisecond).String())
		}
		lines = append(lines, "per-tier amplification ordering held: "+strconv.FormatBool(res.AmplificationOK))
		return res, strings.Join(lines, "\n"), nil
	}
	return newRun(1, job, finalize), nil
}

// padRight pads s with spaces to width runes, like fmt's %-*s. Fig2's
// summary avoids fmt because fmt's printer pool refills after every GC,
// which would make the figure's allocation count depend on GC timing.
func padRight(s string, width int) string {
	if n := utf8.RuneCountInString(s); n < width {
		return s + strings.Repeat(" ", width-n)
	}
	return s
}
