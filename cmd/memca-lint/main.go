// Command memca-lint runs the project's custom static-analysis suite over
// the given go-list package patterns (default ./...). It enforces the
// invariants the paper reproduction rests on — sim determinism, the
// simulated/wall clock boundary, epsilon float comparison, no silently
// dropped errors, the //memca:hotpath allocation discipline, and the
// atomic-access discipline — and exits non-zero on any finding so it can
// gate CI. On top of the AST suite it runs two whole-module checks: the
// allocbound escape-budget gate (the compiler's escape analysis over the
// hot-path packages must stay within internal/lint/testdata/escape_budget.json)
// and testonly (no declaration only tests reach, no exported field only
// tests set or only tests read), which always covers the whole module,
// whatever patterns are given.
//
// Usage:
//
//	go run ./cmd/memca-lint ./...
//	go run ./cmd/memca-lint -analyzers simdeterminism,clockdiscipline ./internal/...
//	go run ./cmd/memca-lint -json ./...            # JSON Lines output
//	go run ./cmd/memca-lint -github ./...          # GitHub annotations
//	go run ./cmd/memca-lint -update-budget         # accept current escapes
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"memca/internal/lint"
)

func main() {
	var (
		names        = flag.String("analyzers", "", "comma-separated analyzer subset (default: all, plus the allocbound and testonly whole-module checks)")
		list         = flag.Bool("list", false, "list available analyzers and exit")
		jsonOut      = flag.Bool("json", false, "emit machine-readable JSON Lines (file, line, col, analyzer, message)")
		github       = flag.Bool("github", false, "emit GitHub Actions ::error annotations alongside the plain findings")
		updateBudget = flag.Bool("update-budget", false, "regenerate the escape budget from the current code and exit")
		budgetPath   = flag.String("escape-budget", lint.DefaultBudgetPath, "escape budget file, relative to the working directory")
		skipBudget   = flag.Bool("skip-budget", false, "skip the allocbound escape-budget gate (AST analyzers only)")
	)
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-16s %s\n", "allocbound", "no heap escapes in hot-path packages beyond the checked-in budget")
		fmt.Printf("%-16s %s\n", "testonly", "no declaration only tests reach and no exported field only tests set or read, module-wide")
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg := lint.DefaultConfig()

	if *updateBudget {
		n, err := lint.WriteBudget(wd, *budgetPath, cfg.EscapeBudget)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("memca-lint: wrote %s: %d accepted escape(s) across %d package(s)\n", *budgetPath, n, len(cfg.EscapeBudget))
		return
	}

	runBudget, runTestOnly := !*skipBudget, true
	if *names != "" {
		want := make(map[string]bool)
		for _, n := range strings.Split(*names, ",") {
			want[strings.TrimSpace(n)] = true
		}
		// allocbound and testonly are whole-module checks, not per-package
		// AST analyzers; each runs iff selected.
		runBudget, runTestOnly = want["allocbound"], want["testonly"]
		delete(want, "allocbound")
		delete(want, "testonly")
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fmt.Fprintf(os.Stderr, "memca-lint: unknown analyzer %q\n", n)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		fatal(err)
	}

	diags := lint.Run(pkgs, analyzers, cfg)

	if runTestOnly {
		module, err := lint.Load(wd, "memca/...")
		if err != nil {
			fatal(err)
		}
		diags = append(diags, lint.CheckTestOnly(module)...)
	}

	if runBudget {
		budgetDiags, stale, err := lint.CheckEscapeBudget(wd, *budgetPath, cfg)
		if err != nil {
			fatal(err)
		}
		diags = append(diags, budgetDiags...)
		for _, note := range stale {
			fmt.Fprintf(os.Stderr, "memca-lint: note: %s\n", note)
		}
	}

	switch {
	case *jsonOut:
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fatal(err)
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *github {
		if err := lint.WriteGitHubAnnotations(os.Stdout, diags); err != nil {
			fatal(err)
		}
	}

	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "memca-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		if hasAnalyzer(diags, "allocbound") {
			fmt.Fprintln(os.Stderr, "memca-lint: escape budget drift: the hot path gained heap escapes.")
			fmt.Fprintln(os.Stderr, "memca-lint: fix the allocation, or accept it deliberately with:")
			fmt.Fprintln(os.Stderr, "memca-lint:     go run ./cmd/memca-lint -update-budget")
			fmt.Fprintln(os.Stderr, "memca-lint: and commit the regenerated "+*budgetPath)
		}
		os.Exit(1)
	}
}

func hasAnalyzer(diags []lint.Diagnostic, name string) bool {
	for _, d := range diags {
		if d.Analyzer == name {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "memca-lint: %v\n", err)
	os.Exit(2)
}
