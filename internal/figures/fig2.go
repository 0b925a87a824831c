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

// Fig2Result captures Figure 2: per-tier percentile response times of the
// 3-tier system under MemCA, in both cloud environments.
type Fig2Result struct {
	// ClientP95 and ClientP98 are the headline damage numbers per
	// environment.
	ClientP95 map[string]time.Duration
	ClientP98 map[string]time.Duration
	// AmplificationOK reports that the p95 ordering client >= apache >=
	// tomcat >= mysql held (within a small mix-dilution tolerance).
	AmplificationOK bool
}

// fig2Tier is one tier's slice of a fig2 job record.
type fig2Tier struct {
	Name  string
	Curve []time.Duration
	P95   time.Duration
}

// fig2Record is one environment's job record: everything Finalize needs
// to write the environment's CSV and judge amplification. Like every
// record it holds plain values only (the record codec refuses maps), so
// it encodes to stable bytes.
type fig2Record struct {
	Env         string
	ClientP95   time.Duration
	ClientP98   time.Duration
	ClientCurve []time.Duration
	Tiers       []fig2Tier
}

func init() {
	registerDist(DistDriver{Name: "fig2", New: newFig2Run})
}

// fig2Envs are the cloud environments of Figure 2, one job each.
var fig2Envs = []core.Env{core.EnvEC2, core.EnvPrivateCloud}

// newFig2Run prepares the Figure 2 driver: one job per cloud environment,
// each running the paper's headline experiment — the 3-minute RUBBoS run
// under the memory-lock MemCA attack (I = 2 s, L = 500 ms).
func newFig2Run(opts Options) (*DistRun, error) {
	job := func(a *stats.Arena, i int) (fig2Record, error) {
		env := fig2Envs[i]
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Env = env
		cfg.Duration = opts.duration(3 * time.Minute)
		cfg.Arena = a // the Report holds only heap copies; see core.Config
		x, err := core.NewExperiment(cfg)
		if err != nil {
			return fig2Record{}, fmt.Errorf("figures: fig2 %v: %w", env, err)
		}
		rep, err := x.Run()
		if err != nil {
			return fig2Record{}, fmt.Errorf("figures: fig2 %v run: %w", env, err)
		}
		rec := fig2Record{
			Env:         env.String(),
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
		res := &Fig2Result{
			ClientP95:       make(map[string]time.Duration),
			ClientP98:       make(map[string]time.Duration),
			AmplificationOK: true,
		}
		lines := make([]string, 0, len(recs)+1)
		for i, rec := range recs {
			if len(rec.Tiers) != 3 {
				return nil, "", fmt.Errorf("figures: fig2 record %d has %d tiers, want 3", i, len(rec.Tiers))
			}
			res.ClientP95[rec.Env] = rec.ClientP95
			res.ClientP98[rec.Env] = rec.ClientP98

			names := append(make([]string, 0, 1+len(rec.Tiers)), "client")
			curves := append(make([][]time.Duration, 0, 1+len(rec.Tiers)), rec.ClientCurve)
			for _, t := range rec.Tiers {
				names, curves = append(names, t.Name), append(curves, t.Curve)
			}
			if err := writeCurves(opts.path("fig2_"+fig2Envs[i].String()+".csv"), core.FigurePercentiles, names, curves); err != nil {
				return nil, "", err
			}

			tol := 5 * time.Millisecond
			apache, tomcat, mysql := rec.Tiers[0].P95, rec.Tiers[1].P95, rec.Tiers[2].P95
			if mysql > tomcat+tol || tomcat > apache+tol || apache > rec.ClientP95+tol {
				res.AmplificationOK = false
			}
			lines = append(lines, padRight(rec.Env, 14)+" client p95 = "+
				padRight(rec.ClientP95.Round(time.Millisecond).String(), 8)+
				" p98 = "+rec.ClientP98.Round(time.Millisecond).String())
		}
		lines = append(lines, "per-tier amplification ordering held: "+strconv.FormatBool(res.AmplificationOK))
		return res, strings.Join(lines, "\n"), nil
	}
	return newRun(len(fig2Envs), job, finalize), nil
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

// Fig2 runs the paper's headline experiment — the 3-minute RUBBoS run
// under the memory-lock MemCA attack (I = 2 s, L = 500 ms) — in the EC2
// and private-cloud parameterizations, and writes one percentile-curve CSV
// per environment.
func Fig2(opts Options) (*Fig2Result, error) { return runAs[*Fig2Result]("fig2", opts) }
