// Command memca-sim runs one MemCA experiment — baseline or attack, with
// optional feedback control and elastic scaling — and prints the report.
// With -trace it also traces every request and exports what aggregate
// metrics hide: Chrome trace-event JSON (load it in Perfetto or
// about://tracing to walk one request's path through the tiers), OTLP
// span batches, per-trace critical-path attribution CSVs, and
// dual-resolution latency timelines and detection features showing
// monitoring blindness.
//
// Usage:
//
//	memca-sim [flags]
//
// Examples:
//
//	memca-sim                                  # paper defaults: 3-min EC2 run under memory lock
//	memca-sim -baseline                        # clean run, no attack
//	memca-sim -env private -attack saturation  # private cloud, bus-saturation attack
//	memca-sim -feedback                        # Kalman-controlled attack
//	memca-sim -scaling -duration 5m            # with a live auto-scaling group attached
//	memca-sim -json report.json                # also write the machine-readable report
//	memca-sim -runs 8 -parallel 4              # 8 replications with derived seeds, 4 workers
//	memca-sim -trace out/trace                 # traced attacked run, artifacts in out/trace/
//	memca-sim -trace out/trace -baseline       # traced baseline into the same directory
//	memca-sim -config configs/defended.json -trace out/defended  # traced config-file scenario
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"memca"
	"memca/internal/core"
	"memca/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "memca-sim:", err)
		os.Exit(1)
	}
}

// configFlags are the flags that still apply alongside -config; every
// other flag sets a scenario field the config file owns.
var configFlags = map[string]bool{"config": true, "json": true, "runs": true, "parallel": true, "trace": true}

func run(args []string) error {
	fs := flag.NewFlagSet("memca-sim", flag.ExitOnError)
	var (
		configPath = fs.String("config", "", "JSON config file (see configs/); combines only with -json, -runs, -parallel and -trace")
		baseline   = fs.Bool("baseline", false, "run without the attack")
		env        = fs.String("env", "ec2", "environment: ec2 or private")
		kind       = fs.String("attack", "lock", "attack kind: lock or saturation")
		duration   = fs.Duration("duration", 3*time.Minute, "measured phase length")
		warmup     = fs.Duration("warmup", 20*time.Second, "warm-up phase length")
		clients    = fs.Int("clients", 3500, "emulated user population")
		burst      = fs.Duration("burst", 500*time.Millisecond, "attack burst length L")
		interval   = fs.Duration("interval", 2*time.Second, "attack burst interval I")
		intensity  = fs.Float64("intensity", 1.0, "attack intensity R in (0,1]")
		feedback   = fs.Bool("feedback", false, "enable the Kalman-filtered commander")
		scaling    = fs.Bool("scaling", false, "attach a live auto-scaling group to MySQL")
		seed       = fs.Int64("seed", 1, "simulation seed")
		jsonOut    = fs.String("json", "", "write the report as JSON to this path")
		runs       = fs.Int("runs", 1, "independent replications with deterministically derived seeds")
		parallel   = fs.Int("parallel", runtime.NumCPU(), "worker count when -runs > 1 (1 = serial; results are identical either way)")
		traceDir   = fs.String("trace", "", "trace every request and write the trace artifacts into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs %d: want at least one run", *runs)
	}
	if *traceDir != "" && *runs > 1 {
		return fmt.Errorf("-trace traces one run: it cannot be combined with -runs %d", *runs)
	}

	if *configPath != "" {
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			if !configFlags[f.Name] {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("%s cannot be combined with -config: set it in the config file", strings.Join(conflict, ", "))
		}
		cfg, _, _, _, err := core.Load(*configPath)
		if err != nil {
			return err
		}
		return execute(cfg, *jsonOut, *traceDir, *runs, *parallel)
	}

	cfg := memca.DefaultConfig()
	cfg.Seed = *seed
	cfg.Duration = *duration
	cfg.Warmup = *warmup
	cfg.Clients = *clients
	switch *env {
	case "ec2":
		cfg.Env = memca.EnvEC2
	case "private":
		cfg.Env = memca.EnvPrivateCloud
	default:
		return fmt.Errorf("unknown -env %q (want ec2 or private)", *env)
	}
	if *baseline {
		cfg.Attack = nil
	} else {
		switch *kind {
		case "lock":
			cfg.Attack.Kind = memca.AttackMemoryLock
		case "saturation":
			cfg.Attack.Kind = memca.AttackBusSaturation
		default:
			return fmt.Errorf("unknown -attack %q (want lock or saturation)", *kind)
		}
		cfg.Attack.Params = memca.AttackParams{
			Intensity:   *intensity,
			BurstLength: *burst,
			Interval:    *interval,
		}
	}
	if *feedback {
		if *baseline {
			return fmt.Errorf("-feedback requires an attack")
		}
		fb := memca.DefaultFeedback()
		cfg.Feedback = &fb
	}
	if *scaling {
		cfg.Scaling = &memca.ScalingSpec{Trigger: memca.DefaultAutoScaler(), MaxInstances: 4}
	}

	return execute(cfg, *jsonOut, *traceDir, *runs, *parallel)
}

// execute runs one configured experiment (or several replications of it)
// and prints/writes the report(s), and the trace artifacts when traceDir
// is set.
func execute(cfg memca.Config, jsonOut, traceDir string, runs, parallel int) error {
	if runs > 1 {
		return executeReplicated(cfg, jsonOut, runs, parallel)
	}
	if traceDir != "" {
		spec := traceSpec()
		cfg.Trace = &spec
	}
	x, err := memca.NewExperiment(cfg)
	if err != nil {
		return err
	}
	defer x.Close()
	fmt.Printf("running %v for %v (%d clients, warmup %v)...\n", cfg.Env, cfg.Duration, cfg.Clients, cfg.Warmup)
	start := time.Now()
	rep, err := x.Run()
	if err != nil {
		return err
	}
	fmt.Printf("done in %v (wall clock)\n\n", time.Since(start).Round(time.Millisecond))
	fmt.Println(rep.Render())
	if traceDir != "" {
		if err := writeTrace(traceDir, cfg.Attack != nil, x.Tracer(), rep.Client.P99); err != nil {
			return err
		}
	}
	if jsonOut != "" {
		if err := trace.WriteJSON(jsonOut, rep); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", jsonOut)
	}
	return nil
}

// executeReplicated fans `runs` replications with derived seeds over up
// to `parallel` workers and prints one summary line per replication.
func executeReplicated(cfg memca.Config, jsonOut string, runs, parallel int) error {
	fmt.Printf("running %v for %v (%d clients, warmup %v), %d replications, %d workers...\n",
		cfg.Env, cfg.Duration, cfg.Clients, cfg.Warmup, runs, parallel)
	start := time.Now()
	opts := memca.ReplicateOptions{
		Workers: parallel,
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "  replication %d/%d done\n", done, total)
		},
	}
	reps, err := memca.Replicate(context.Background(), cfg, runs, opts)
	if err != nil {
		return err
	}
	fmt.Printf("done in %v (wall clock)\n\n", time.Since(start).Round(time.Millisecond))
	var minP95, maxP95, sumP95 time.Duration
	for i, r := range reps {
		p95 := r.Report.Client.P95
		if i == 0 || p95 < minP95 {
			minP95 = p95
		}
		if p95 > maxP95 {
			maxP95 = p95
		}
		sumP95 += p95
		fmt.Printf("run %2d  seed=%-20d client p95=%-10v p99=%-10v drops=%d\n",
			r.Index, r.Seed, p95.Round(time.Millisecond),
			r.Report.Client.P99.Round(time.Millisecond), r.Report.Drops)
	}
	fmt.Printf("\nclient p95 over %d runs: min=%v mean=%v max=%v\n",
		len(reps), minP95.Round(time.Millisecond),
		(sumP95 / time.Duration(len(reps))).Round(time.Millisecond),
		maxP95.Round(time.Millisecond))
	if jsonOut != "" {
		if err := trace.WriteJSON(jsonOut, reps); err != nil {
			return err
		}
		fmt.Printf("replications written to %s\n", jsonOut)
	}
	return nil
}
