package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"memca/internal/dsweep"
	"memca/internal/figures"
)

// figShards is the dsweep shard count for the fig2 path: enough to make
// the merge reorder records, run in this process one shard after another.
const figShards = 2

// figQuick regenerates one quick figure per driver execution path: fig2
// through the dsweep fabric, the mechanisms ablation through the driver
// registry, Fig7 through the ad-hoc arena-job path, and Fig10 by hand.
type figQuick struct {
	ref string
	// mutate, when set, edits an op's output directory before the check
	// (tests use it to corrupt a CSV).
	mutate func(dir string)
}

func (w *figQuick) fingerprint() string { return "csv-sha256 " + w.ref }

func (w *figQuick) warm(b *bench) error { return w.op(b, newPhase()) }

func (w *figQuick) measure(b *bench, p *phase, until time.Time) {
	runOps(b, p, until, w.op)
}

// setUpFigures is the program's own set-up for one op: preparing the fig2
// manifest (which prepares the fig2 driver) and the mechanisms driver.
func setUpFigures(o figures.Options, artifacts string) (*dsweep.Manifest, time.Duration, error) {
	t0 := time.Now()
	m, err := figures.NewManifest("fig2", o, figShards, artifacts)
	if err != nil {
		return nil, 0, err
	}
	d, ok := figures.LookupDist("ablation-mechanisms")
	if !ok {
		return nil, 0, fmt.Errorf("no ablation-mechanisms driver")
	}
	if _, err := d.New(o); err != nil {
		return nil, 0, err
	}
	return m, time.Since(t0), nil
}

func (w *figQuick) op(b *bench, p *phase) error {
	dir, err := os.MkdirTemp(b.out, "fig-quick-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o := figures.Options{OutDir: dir, Quick: true, Seed: b.seed, Parallel: 1}
	op, sp := b.nextOp(), b.spans

	m, setup, err := setUpFigures(o, filepath.Join(dir, "artifacts"))
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	p.setupS = append(p.setupS, setup.Seconds())

	fig2 := sp.begin("figures.fig2", op, -1)
	err = sp.call("dsweep.manifest", op, fig2, func() error {
		return dsweep.WriteManifest(filepath.Join(dir, "manifest.json"), m)
	})
	if err != nil {
		return err
	}
	for s := 0; s < figShards; s++ {
		err := sp.call("dsweep.shard", op, fig2, func() error {
			return figures.RunShard(context.Background(), m, s, dsweep.ShardOptions{})
		})
		if err != nil {
			return err
		}
	}
	if err := sp.call("dsweep.merge", op, fig2, func() error { return dsweep.Merge(m) }); err != nil {
		return err
	}
	var fig2Res any
	err = sp.call("dsweep.finalize", op, fig2, func() error {
		var err error
		fig2Res, _, err = figures.RunDistributed(m)
		return err
	})
	sp.end(fig2)
	if err != nil {
		return err
	}
	if r, ok := fig2Res.(*figures.Fig2Result); !ok || !r.AmplificationOK {
		return fmt.Errorf("fig2: tail amplification ordering does not hold")
	}
	artifacts, err := fileBytes(filepath.Join(dir, "artifacts", "*"))
	if err != nil {
		return err
	}

	err = sp.call("figures.ablation_mechanisms", op, -1, func() error {
		_, err := figures.AblationMechanisms(o)
		return err
	})
	if err != nil {
		return err
	}
	if err := sp.call("figures.fig7", op, -1, func() error { _, err := figures.Fig7(o); return err }); err != nil {
		return err
	}
	if err := sp.call("figures.fig10", op, -1, func() error { _, err := figures.Fig10(o); return err }); err != nil {
		return err
	}

	if w.mutate != nil {
		w.mutate(dir)
	}
	fp, csvBytes, err := csvFingerprint(dir)
	if err != nil {
		return err
	}
	p.layer["dsweep.artifact_bytes"] = float64(artifacts)
	p.layer["figures.csv_bytes"] = float64(csvBytes)
	if w.ref == "" {
		w.ref = fp
	} else if fp != w.ref {
		return fmt.Errorf("csv fingerprint %s differs from the run's first op %s", fp, w.ref)
	}
	return nil
}

// csvFingerprint hashes every CSV in dir (names and contents, in name
// order) and returns the hex digest and the total CSV bytes.
func csvFingerprint(dir string) (string, int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return "", 0, err
	}
	sort.Strings(paths)
	h := sha256.New()
	total := int64(0)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(p), len(data))
		h.Write(data)
		total += int64(len(data))
	}
	if len(paths) == 0 {
		return "", 0, fmt.Errorf("no CSVs written")
	}
	return hex.EncodeToString(h.Sum(nil)), total, nil
}
