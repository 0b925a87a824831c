package defense

import (
	"testing"
	"time"

	"memca/internal/stats"
)

// memcaSignal builds a utilization source with saturation bursts of the
// given length every interval, over a base load.
func memcaSignal(length, interval time.Duration, base float64, bursts int) func(from, to time.Duration) float64 {
	b := stats.NewArena().LevelIntegrator()
	b.KeepHistory()
	for i := 0; i < bursts; i++ {
		start := time.Duration(i) * interval
		b.Set(start, 1)
		b.Set(start+length, 0)
	}
	return func(from, to time.Duration) float64 {
		u := b.WindowAverage(from, to)
		return u + (1-u)*base
	}
}

func TestDetectorConfigValidate(t *testing.T) {
	if err := DefaultDetector().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []DetectorConfig{
		{Granularity: 0, SaturationLevel: 0.9},
		{Granularity: time.Second, SaturationLevel: 0},
		{Granularity: time.Second, SaturationLevel: 1.5},
		{Granularity: time.Second, SaturationLevel: 0.9, MinLength: -time.Second},
		{Granularity: time.Second, SaturationLevel: 0.9, PerSampleOverhead: -1},
	}
	for i, cfg := range bad {
		if _, err := NewDetector(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDetectorFindsMillibottlenecks(t *testing.T) {
	d, err := NewDetector(DefaultDetector())
	if err != nil {
		t.Fatal(err)
	}
	src := memcaSignal(500*time.Millisecond, 2*time.Second, 0.4, 10)
	episodes, err := d.Detect(src, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(episodes) != 10 {
		t.Fatalf("found %d episodes, want 10", len(episodes))
	}
	for i, e := range episodes {
		if e.Length < 400*time.Millisecond || e.Length > 600*time.Millisecond {
			t.Errorf("episode %d length %v, want ~500ms", i, e.Length)
		}
		want := time.Duration(i) * 2 * time.Second
		if e.Start < want-100*time.Millisecond || e.Start > want+100*time.Millisecond {
			t.Errorf("episode %d starts at %v, want ~%v", i, e.Start, want)
		}
	}
}

func TestDetectorIgnoresShortBlips(t *testing.T) {
	d, err := NewDetector(DefaultDetector()) // MinLength = 100ms
	if err != nil {
		t.Fatal(err)
	}
	src := memcaSignal(50*time.Millisecond, 2*time.Second, 0.3, 10)
	episodes, err := d.Detect(src, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(episodes) != 0 {
		t.Errorf("flagged %d sub-threshold blips", len(episodes))
	}
}

func TestDetectorMissesAtCoarseGranularity(t *testing.T) {
	// The stealthiness argument: 1-second windows dilute a 500ms burst
	// to ~70% utilization over a 40% base — below the saturation level.
	cfg := DefaultDetector()
	cfg.Granularity = time.Second
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := memcaSignal(500*time.Millisecond, 2*time.Second, 0.4, 10)
	episodes, err := d.Detect(src, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(episodes) != 0 {
		t.Errorf("coarse detector found %d episodes, want 0", len(episodes))
	}
}

func TestDetectorEpisodeSpansHorizonEnd(t *testing.T) {
	d, err := NewDetector(DefaultDetector())
	if err != nil {
		t.Fatal(err)
	}
	// Saturated for the entire horizon: one long episode, flushed at end.
	src := func(from, to time.Duration) float64 { return 1 }
	episodes, err := d.Detect(src, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(episodes) != 1 || episodes[0].Length < 4900*time.Millisecond {
		t.Errorf("open episode not flushed correctly: %+v", episodes)
	}
}

func TestOverheadFraction(t *testing.T) {
	fine := DefaultDetector()
	coarse := fine
	coarse.Granularity = time.Second
	// 20x more samples at 50ms → 20x the overhead.
	ratio := fine.OverheadFraction() / coarse.OverheadFraction()
	if ratio < 19.9 || ratio > 20.1 {
		t.Errorf("overhead ratio %v, want 20", ratio)
	}
	// The calibrated default keeps 1s sampling well under the 1% budget
	// and 50ms sampling near it.
	if coarse.OverheadFraction() > 0.001 {
		t.Errorf("1s overhead %v, want < 0.1%%", coarse.OverheadFraction())
	}
	if fine.OverheadFraction() < 0.0005 {
		t.Errorf("50ms overhead %v, should be material", fine.OverheadFraction())
	}
}

func TestClassifyPulsatingAttack(t *testing.T) {
	var episodes []Millibottleneck
	for i := 0; i < 10; i++ {
		episodes = append(episodes, Millibottleneck{
			Start:  time.Duration(i) * 2 * time.Second,
			Length: 500 * time.Millisecond,
		})
	}
	c := Classify(episodes, 5)
	if !c.PulsatingAttack {
		t.Errorf("periodic episodes not classified as attack: %+v", c)
	}
	if c.MeanInterval < 1900*time.Millisecond || c.MeanInterval > 2100*time.Millisecond {
		t.Errorf("mean interval %v, want ~2s", c.MeanInterval)
	}
	if c.IntervalCV > 0.01 {
		t.Errorf("interval CV %v for perfectly periodic input", c.IntervalCV)
	}
}

func TestClassifyOrganicSpikes(t *testing.T) {
	// Irregular gaps: organic load, not an attack.
	starts := []time.Duration{0, 3 * time.Second, 4 * time.Second, 11 * time.Second, 12 * time.Second, 25 * time.Second}
	var episodes []Millibottleneck
	for _, s := range starts {
		episodes = append(episodes, Millibottleneck{Start: s, Length: 300 * time.Millisecond})
	}
	c := Classify(episodes, 5)
	if c.PulsatingAttack {
		t.Errorf("irregular spikes classified as attack (CV = %v)", c.IntervalCV)
	}
}

func TestClassifyDegenerateInputs(t *testing.T) {
	if c := Classify(nil, 5); c.PulsatingAttack {
		t.Error("empty input misclassified")
	}
	one := []Millibottleneck{{Start: 0, Length: time.Second}}
	if c := Classify(one, 5); c.PulsatingAttack {
		t.Error("single episode classified as attack")
	}
}

func TestClassifyLongEpisodesNotMemCA(t *testing.T) {
	// Periodic but multi-second saturations: a batch job, not a
	// millibottleneck attack.
	var episodes []Millibottleneck
	for i := 0; i < 10; i++ {
		episodes = append(episodes, Millibottleneck{
			Start:  time.Duration(i) * 10 * time.Second,
			Length: 5 * time.Second,
		})
	}
	if c := Classify(episodes, 5); c.PulsatingAttack {
		t.Error("long periodic saturations classified as MemCA")
	}
}
