// Command memca-plan sizes an n-tier deployment against the MemCA threat
// model: given tier templates, a traffic forecast, and an SLO, it searches
// replica counts and thread-pool scales for the cheapest sizing that holds
// the objective both attack-free and under the worst-case stealthy burst
// train (analytical.PlanAttack as the adversary oracle), and reports the
// verdict, the maximum sustainable load in each regime, and the minimality
// witness (one bottleneck replica fewer fails).
//
// Input: a config file (-config, see core.Load) whose system, traffic
// and slo sections seed the plan; a file without them, or no file at all,
// plans the paper's RUBBoS defaults.
//
// Usage:
//
//	go run ./cmd/memca-plan                           # RUBBoS defaults
//	go run ./cmd/memca-plan -config configs/plan-rubbos.json
//	go run ./cmd/memca-plan -config configs/paper-default.json -quick
//	go run ./cmd/memca-plan -clients 2600 -think 1s -json
package main

import (
	"flag"
	"fmt"
	"os"

	"memca/internal/core"
	"memca/internal/plan"
	"memca/internal/spec"
)

func main() {
	var (
		configPath = flag.String("config", "", "config file; its system/traffic/slo sections seed the plan (missing sections default to RUBBoS)")
		jsonOut    = flag.Bool("json", false, "emit the JSON report instead of text")
		quick      = flag.Bool("quick", false, "shrink the search caps (4 replicas/tier, one adversary interval) for smoke runs")
		clients    = flag.Int("clients", 0, "override the client population")
		think      = flag.Duration("think", 0, "override the mean think time")
		growth     = flag.Float64("growth", 0, "override the growth multiplier")
		target     = flag.Duration("target", 0, "override the SLO target response time")
		drop       = flag.Float64("drop", -1, "override the SLO max drop rate")
		percentile = flag.Float64("percentile", 0, "override the SLO percentile")
		out        = flag.String("o", "", "write the report to a file instead of stdout")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	sys, traffic, slo := spec.RUBBoSSystem(), spec.RUBBoSTraffic(), spec.DefaultSLO()
	if *configPath != "" {
		var err error
		if _, sys, traffic, slo, err = core.Load(*configPath); err != nil {
			fatal(err)
		}
	}
	if *clients > 0 {
		traffic.Clients = *clients
	}
	if *think > 0 {
		traffic.ThinkTime = *think
	}
	if *growth > 0 {
		traffic.Growth = *growth
	}
	if *target > 0 {
		slo.TargetRT = *target
	}
	if *drop >= 0 {
		slo.MaxDropRate = *drop
	}
	if *percentile > 0 {
		slo.Percentile = *percentile
	}

	req := plan.Request{System: sys, Traffic: traffic, SLO: slo}
	if *quick {
		req.Options = plan.Options{MaxReplicas: 4, ThreadScales: []int{1, 4}}
		adv := plan.DefaultAdversary()
		adv.Intervals = adv.Intervals[1:2] // the paper's I = 2 s only
		req.Adversary = adv
	}

	res, err := plan.Solve(req)
	if err != nil {
		fatal(err)
	}

	var report []byte
	if *jsonOut {
		report, err = res.JSON(req)
		if err != nil {
			fatal(err)
		}
		report = append(report, '\n')
	} else {
		report = []byte(res.Render(req))
	}
	if *out != "" {
		if err := os.WriteFile(*out, report, 0o644); err != nil {
			fatal(err)
		}
		return
	}
	if _, err := os.Stdout.Write(report); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memca-plan:", err)
	os.Exit(1)
}
