package lint

import "strings"

// Config classifies packages for the analyzers. The model is default-deny:
// a package gets wall-clock access only when explicitly allowlisted, so a
// freshly added package inherits the strict simulated-time discipline until
// someone consciously decides otherwise.
type Config struct {
	// SimPath lists import paths under the determinism contract: no
	// global math/rand, no nondeterministically seeded RNG construction,
	// no wall-clock calls. Entries are exact import paths.
	SimPath []string

	// ClockAllowed lists import paths that may legitimately touch the
	// wall clock: the real-socket measurement framework and binaries.
	// Entries ending in "/..." allow a whole subtree.
	ClockAllowed []string

	// EscapeBudget lists the import paths under the allocbound gate: the
	// zero-alloc hot-path packages whose compiler escape analysis must
	// match the checked-in budget file. Entries are exact import paths.
	EscapeBudget []string
}

// DefaultConfig returns the project policy.
//
// The sim-path set covers every package on the simulated side of the clock
// boundary described in DESIGN.md: the engine itself, the queueing network,
// workload generation, the cloud/attack/defense models, the analytical
// model, the spec vocabulary and the capacity planner built on it (pure
// arithmetic over the analytical model — any wall-clock use would make
// sizing decisions irreproducible), statistics kernels, figure pipelines,
// the parallel sweep engine
// (its goroutines carry independent single-threaded simulations and no
// randomness of their own), the per-request telemetry tracer (a pure
// observer of the simulation — any wall-clock or stray-RNG use would
// break trace-export determinism), and the orchestration layer that
// wires them (core and the memca facade).
//
// The clock-allowed set covers the packages that measure or interact with
// the real world: the memcached-protocol framework and victim daemon that
// drive real sockets, the resource monitor, and every binary under cmd/
// and examples/.
func DefaultConfig() *Config {
	return &Config{
		SimPath: []string{
			"memca",
			"memca/internal/analytical",
			"memca/internal/attack",
			"memca/internal/cloud",
			"memca/internal/control",
			"memca/internal/core",
			"memca/internal/defense",
			// The deterministic half of the distributed sweep fabric:
			// shard math, record framing, manifest hashing, recovery, and
			// merging never read the clock or any RNG (file I/O and fsync
			// are fine — durability is not nondeterminism). Orchestration
			// lives in dsweep/coord, which is clock-allowed below.
			"memca/internal/dsweep",
			"memca/internal/figures",
			"memca/internal/memmodel",
			"memca/internal/plan",
			"memca/internal/queueing",
			"memca/internal/sim",
			"memca/internal/spec",
			"memca/internal/stats",
			"memca/internal/sweep",
			"memca/internal/telemetry",
			"memca/internal/trace",
			"memca/internal/workload",
		},
		ClockAllowed: []string{
			"memca/internal/memcafw",
			"memca/internal/victimd",
			"memca/internal/monitor",
			// The live collector timestamps real-socket spans; it sits
			// beside the sim tracer in internal/telemetry but on the
			// wall-clock side of the boundary (SimPath entries are exact,
			// so the parent package stays under the contract).
			"memca/internal/telemetry/live",
			// The precise wall-clock wait the live tiers and the stream
			// program time their work with.
			"memca/internal/walltimer",
			// The worker-process coordinator spawns workers and retries
			// dead shards on real time; everything that determines
			// results stays in the sim-path internal/dsweep (SimPath
			// entries are exact, so the parent stays under the contract).
			"memca/internal/dsweep/coord",
			"memca/cmd/...",
			"memca/examples/...",
		},
		EscapeBudget: []string{
			"memca/internal/memmodel",
			"memca/internal/queueing",
			"memca/internal/sim",
			"memca/internal/stats",
			"memca/internal/telemetry",
			"memca/internal/telemetry/live",
			"memca/internal/workload",
		},
	}
}

// IsSimPath reports whether the package is under the determinism contract.
func (c *Config) IsSimPath(importPath string) bool {
	for _, p := range c.SimPath {
		if matchPattern(p, importPath) {
			return true
		}
	}
	return false
}

// IsClockAllowed reports whether the package may use the wall clock.
func (c *Config) IsClockAllowed(importPath string) bool {
	for _, p := range c.ClockAllowed {
		if matchPattern(p, importPath) {
			return true
		}
	}
	return false
}

// matchPattern matches an exact import path, or a subtree when the pattern
// ends in "/...". The "/..." form also matches the subtree root itself.
func matchPattern(pattern, path string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return pattern == path
}
