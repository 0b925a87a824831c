// Command memca-bench regenerates the paper's tables and figures: each
// registered figure driver runs the corresponding experiment at full
// scale, writes plot-ready CSVs under -out, and prints the key scalars
// the paper's qualitative claims rest on.
//
// Usage:
//
//	memca-bench                        # regenerate everything into out/
//	memca-bench -fig fig2              # only Figure 2
//	memca-bench -fig 'ablation-*'      # every ablation sweep
//	memca-bench -quick                 # ~4x shorter horizons (smoke run)
//
// Sharded runs over worker processes are memca-sweep's (plan, then run).
package main

import (
	"flag"
	"fmt"
	"os"
	"path"
	"runtime"
	"strings"
	"time"

	"memca/internal/figures"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "memca-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig      = flag.String("fig", "all", "figure driver to regenerate: a name, a pattern such as 'ablation-*', or all (drivers: "+strings.Join(figures.DistDrivers(), ", ")+")")
		out      = flag.String("out", "out", "output directory for CSV artifacts")
		quick    = flag.Bool("quick", false, "shorter horizons for a smoke run")
		seed     = flag.Int64("seed", 1, "simulation seed")
		parallel = flag.Int("parallel", runtime.NumCPU(), "worker count for a driver's independent runs (1 = serial; artifacts are identical either way)")
	)
	flag.Parse()

	drivers, err := matchDrivers(*fig)
	if err != nil {
		return err
	}
	opts := figures.Options{OutDir: *out, Quick: *quick, Seed: *seed, Parallel: *parallel}
	opts.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "    run %d/%d\n", done, total)
	}
	for _, name := range drivers {
		err := timed(name, func() (string, error) {
			_, summary, err := figures.RunLocal(name, opts)
			return summary, err
		})
		if err != nil {
			return err
		}
	}
	fmt.Printf("all artifacts written under %s/\n", *out)
	return nil
}

// matchDrivers resolves -fig to registry names: all of them, the ones a
// path.Match pattern selects, or one exact name.
func matchDrivers(fig string) ([]string, error) {
	if fig == "all" {
		return figures.DistDrivers(), nil
	}
	var names []string
	for _, name := range figures.DistDrivers() {
		ok, err := path.Match(fig, name)
		if err != nil {
			return nil, fmt.Errorf("bad -fig pattern %q: %w", fig, err)
		}
		if ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-fig %q matches no figure driver (have %s)", fig, strings.Join(figures.DistDrivers(), ", "))
	}
	return names, nil
}

// timed prints one driver's heading, summary, and elapsed time.
func timed(name string, f func() (string, error)) error {
	fmt.Printf("=== %s ===\n", name)
	start := time.Now()
	summary, err := f()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("  %s\n", strings.ReplaceAll(summary, "\n", "\n  "))
	fmt.Printf("    (%v)\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}
