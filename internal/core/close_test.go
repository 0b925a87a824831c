package core

import (
	"sync"
	"testing"
	"time"

	"memca/internal/stats"
)

// closeConfig is a short attacked run with LLC sampling, so every
// component an accessor exposes is wired.
func closeConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 5 * time.Second
	cfg.Warmup = time.Second
	cfg.Clients = 500
	cfg.LLCSamplePeriod = time.Second
	return cfg
}

// TestAccessorAfterClosePanics pins the Close contract: every accessor
// (and Run) panics once the experiment is closed, instead of handing out
// components whose storage the arena pool may already have given to the
// next run; Close is idempotent; the Report stays readable.
func TestAccessorAfterClosePanics(t *testing.T) {
	x, err := NewExperiment(closeConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Client
	x.Close()
	x.Close()
	if rep.Client != want || rep.Client.Count == 0 {
		t.Fatalf("Report changed after Close: %+v, want %+v", rep.Client, want)
	}
	accessors := []struct {
		name string
		use  func()
	}{
		{"Engine", func() { x.Engine() }},
		{"Network", func() { x.Network() }},
		{"Generator", func() { x.Generator() }},
		{"Burster", func() { x.Burster() }},
		{"Commander", func() { x.Commander() }},
		{"Prober", func() { x.Prober() }},
		{"Tracer", func() { x.Tracer() }},
		{"LLCVictimSeries", func() { x.LLCVictimSeries() }},
		{"LLCAdversarySeries", func() { x.LLCAdversarySeries() }},
		{"Run", func() { _, _ = x.Run() }},
	}
	for _, a := range accessors {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", a.name)
				}
			}()
			a.use()
		}()
	}
}

// TestCloseLeavesCallerArena pins ownership: Close neither resets nor
// pools an arena the caller supplied, and still drops the components.
func TestCloseLeavesCallerArena(t *testing.T) {
	a := stats.NewArena()
	cfg := closeConfig()
	cfg.Arena = a
	x, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	live := a.Stats().Live
	x.Close()
	if st := a.Stats(); st.Resets != 0 || st.Live != live {
		t.Fatalf("Close touched the caller's arena: %+v, want no resets and %d live objects", st, live)
	}
	defer func() {
		if recover() == nil {
			t.Error("Network after Close did not panic")
		}
	}()
	x.Network()
}

// TestRaceConcurrentClose runs NewExperiment/Run/Close on two goroutines
// at once. Both draw arenas from and return them to the process-wide
// pool; under `go test -race` any shared state between the runs shows.
func TestRaceConcurrentClose(t *testing.T) {
	var wg sync.WaitGroup
	p95 := make([][]time.Duration, 2)
	for g := range p95 {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				x, err := NewExperiment(closeConfig())
				if err != nil {
					t.Error(err)
					return
				}
				rep, err := x.Run()
				x.Close()
				if err != nil {
					t.Error(err)
					return
				}
				p95[g] = append(p95[g], rep.Client.P95)
			}
		}(g)
	}
	wg.Wait()
	for g, runs := range p95 {
		for i, v := range runs {
			if v != p95[0][0] {
				t.Errorf("goroutine %d run %d: p95 %v, want %v as in every same-seed run", g, i, v, p95[0][0])
			}
		}
	}
}
