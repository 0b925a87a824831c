package monitor

import (
	"testing"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// burstSource returns a UtilizationSource that is saturated for the first
// `on` of every `period`, idle otherwise, and `base` busy in between — a
// synthetic MemCA utilization signal.
func burstSource(on, period time.Duration, base float64) UtilizationSource {
	b := stats.NewArena().LevelIntegrator()
	b.KeepHistory()
	for i := 0; i < 600; i++ {
		start := time.Duration(i) * period
		b.Set(start, 1)
		b.Set(start+on, 0)
	}
	return func(from, to time.Duration) float64 {
		burst := b.WindowAverage(from, to)
		return burst + (1-burst)*base
	}
}

func TestSamplerGranularityEffect(t *testing.T) {
	// The paper's Figure 10: 500ms bursts every 2s over a 40% base.
	src := burstSource(500*time.Millisecond, 2*time.Second, 0.4)
	horizon := 3 * time.Minute

	collect := func(g time.Duration) []stats.Bucket {
		s, err := NewSampler(g, src)
		if err != nil {
			t.Fatal(err)
		}
		buckets, err := s.Collect(horizon)
		if err != nil {
			t.Fatal(err)
		}
		return buckets
	}

	coarse := collect(GranularityCloud)
	user := collect(GranularityUser)
	fine := collect(GranularityFine)

	// 1-minute view: flat and moderate (~0.55), never near saturation.
	for _, b := range coarse {
		if b.Mean > 0.7 {
			t.Errorf("1-min bucket at %v = %v, should look moderate", b.Start, b.Mean)
		}
	}
	// 50 ms view: transient saturation clearly visible.
	maxFine := 0.0
	for _, b := range fine {
		if b.Mean > maxFine {
			maxFine = b.Mean
		}
	}
	if maxFine < 0.99 {
		t.Errorf("50ms max = %v, want ~1.0 (millibottleneck visible)", maxFine)
	}
	// 1 s view: in between — some fluctuation, no sustained saturation.
	maxUser := 0.0
	for _, b := range user {
		if b.Mean > maxUser {
			maxUser = b.Mean
		}
	}
	if maxUser >= maxFine || maxUser < 0.5 {
		t.Errorf("1s max = %v, want between coarse and fine", maxUser)
	}
}

func TestSamplerValidation(t *testing.T) {
	src := burstSource(time.Second, 2*time.Second, 0)
	if _, err := NewSampler(0, src); err == nil {
		t.Error("zero granularity accepted")
	}
	if _, err := NewSampler(time.Second, nil); err == nil {
		t.Error("nil source accepted")
	}
	s, err := NewSampler(time.Second, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Collect(0); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestAutoScalerNotTriggeredByMemCA(t *testing.T) {
	// The stealthiness headline: the MemCA signal never trips the 85%
	// 1-minute trigger even though the instantaneous signal saturates.
	src := burstSource(500*time.Millisecond, 2*time.Second, 0.4)
	a, err := NewAutoScaler(DefaultAutoScaler())
	if err != nil {
		t.Fatal(err)
	}
	events, err := a.Evaluate(src, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("MemCA triggered auto scaling %d times", len(events))
	}
}

func TestAutoScalerTriggeredBySustainedLoad(t *testing.T) {
	// A brute-force attack (sustained saturation) does trigger scaling —
	// the contrast that makes MemCA's on-off pattern the point.
	src := func(from, to time.Duration) float64 { return 0.95 }
	a, err := NewAutoScaler(DefaultAutoScaler())
	if err != nil {
		t.Fatal(err)
	}
	events, err := a.Evaluate(src, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("sustained saturation did not trigger scaling")
	}
	// Cooldown: 10 minutes of breach with 5-minute cooldown → 2 events.
	if len(events) != 2 {
		t.Errorf("got %d scale events, want 2 (cooldown)", len(events))
	}
	if events[0].At != time.Minute {
		t.Errorf("first event at %v, want 1m", events[0].At)
	}
}

func TestAutoScalerConsecutivePeriods(t *testing.T) {
	cfg := DefaultAutoScaler()
	cfg.ConsecutivePeriods = 3
	a, err := NewAutoScaler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buckets := []stats.Bucket{
		{Start: 0, Mean: 0.9},
		{Start: time.Minute, Mean: 0.9},
		{Start: 2 * time.Minute, Mean: 0.5}, // breaks the run
		{Start: 3 * time.Minute, Mean: 0.9},
		{Start: 4 * time.Minute, Mean: 0.9},
		{Start: 5 * time.Minute, Mean: 0.9},
	}
	events := a.EvaluateBuckets(buckets)
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	if events[0].At != 6*time.Minute {
		t.Errorf("event at %v, want 6m", events[0].At)
	}
}

func TestAutoScalerValidation(t *testing.T) {
	bad := []AutoScalerConfig{
		{Threshold: 0, Period: time.Minute, ConsecutivePeriods: 1},
		{Threshold: 1.5, Period: time.Minute, ConsecutivePeriods: 1},
		{Threshold: 0.8, Period: 0, ConsecutivePeriods: 1},
		{Threshold: 0.8, Period: time.Minute, ConsecutivePeriods: 0},
		{Threshold: 0.8, Period: time.Minute, ConsecutivePeriods: 1, Cooldown: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewAutoScaler(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	a, err := NewAutoScaler(DefaultAutoScaler())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Evaluate(nil, time.Minute); err == nil {
		t.Error("nil source accepted")
	}
}

func TestThresholdDetectorGranularityDependence(t *testing.T) {
	// The same signal alarms at fine granularity and stays silent at
	// coarse granularity — the core of the evasion argument.
	src := burstSource(500*time.Millisecond, 2*time.Second, 0.4)
	det := ThresholdDetector{Threshold: 0.9}

	collect := func(g time.Duration) []stats.Bucket {
		s, err := NewSampler(g, src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Collect(2 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if alarms := det.Detect(collect(GranularityCloud)); len(alarms) != 0 {
		t.Errorf("coarse monitoring alarmed %d times", len(alarms))
	}
	if alarms := det.Detect(collect(GranularityFine)); len(alarms) == 0 {
		t.Error("fine monitoring missed the millibottlenecks")
	}
}

func TestThresholdDetectorDebounce(t *testing.T) {
	det := ThresholdDetector{Threshold: 0.5, MinConsecutive: 3}
	buckets := []stats.Bucket{
		{Mean: 0.9}, {Mean: 0.9}, {Mean: 0.1}, // run of 2: no alarm
		{Mean: 0.9}, {Mean: 0.9}, {Mean: 0.9}, // run of 3: alarm
	}
	alarms := det.Detect(buckets)
	if len(alarms) != 1 {
		t.Errorf("got %d alarms, want 1", len(alarms))
	}
}

func TestEWMADetector(t *testing.T) {
	det := EWMADetector{Alpha: 0.3, K: 4, Warmup: 10}
	var buckets []stats.Bucket
	for i := 0; i < 50; i++ {
		v := 0.5 + 0.01*float64(i%3) // mild noise
		buckets = append(buckets, stats.Bucket{Start: time.Duration(i) * time.Second, Mean: v})
	}
	if alarms := det.Detect(buckets); len(alarms) != 0 {
		t.Errorf("EWMA alarmed on steady signal: %d", len(alarms))
	}
	buckets = append(buckets, stats.Bucket{Start: 51 * time.Second, Mean: 0.99})
	alarms := det.Detect(buckets)
	if len(alarms) == 0 {
		t.Error("EWMA missed an obvious spike")
	}
}

func TestEWMADetectorDegenerateInputs(t *testing.T) {
	det := EWMADetector{Alpha: 0, K: 3}
	if alarms := det.Detect([]stats.Bucket{{Mean: 1}}); alarms != nil {
		t.Error("invalid alpha should detect nothing")
	}
	det = EWMADetector{Alpha: 0.5, K: 3}
	if alarms := det.Detect(nil); alarms != nil {
		t.Error("empty input should detect nothing")
	}
}

func TestCUSUMDetectorShift(t *testing.T) {
	det := CUSUMDetector{Target: 0.5, Slack: 0.05, DecisionThreshold: 0.5}
	var buckets []stats.Bucket
	for i := 0; i < 60; i++ {
		buckets = append(buckets, stats.Bucket{Start: time.Duration(i) * time.Second, Mean: 0.5})
	}
	if alarms := det.Detect(buckets); len(alarms) != 0 {
		t.Errorf("CUSUM alarmed in control: %d", len(alarms))
	}
	for i := 60; i < 80; i++ {
		buckets = append(buckets, stats.Bucket{Start: time.Duration(i) * time.Second, Mean: 0.65})
	}
	if alarms := det.Detect(buckets); len(alarms) == 0 {
		t.Error("CUSUM missed a sustained shift")
	}
}

func TestPeriodicityDiscriminatesAttacks(t *testing.T) {
	// Synthetic Figure 11: a periodic miss signal (bus saturation) vs. a
	// flat one (memory lock).
	period := 40 // buckets per attack interval
	var periodic, flat []stats.Bucket
	for i := 0; i < 400; i++ {
		v := 1000.0
		if i%period < 5 {
			v = 50000
		}
		periodic = append(periodic, stats.Bucket{Start: time.Duration(i) * 50 * time.Millisecond, Mean: v})
		flat = append(flat, stats.Bucket{Start: time.Duration(i) * 50 * time.Millisecond, Mean: 1000 + float64(i%7)})
	}
	pScore, err := Periodicity(periodic, period)
	if err != nil {
		t.Fatal(err)
	}
	fScore, err := Periodicity(flat, period)
	if err != nil {
		t.Fatal(err)
	}
	if pScore < 0.5 {
		t.Errorf("periodic signal score %v, want > 0.5", pScore)
	}
	if fScore > 0.3 {
		t.Errorf("flat signal score %v, want < 0.3", fScore)
	}
}

func TestPeriodicityValidation(t *testing.T) {
	if _, err := Periodicity(nil, 0); err == nil {
		t.Error("zero lag accepted")
	}
	if _, err := Periodicity([]stats.Bucket{{Mean: 1}}, 5); err == nil {
		t.Error("too-short series accepted")
	}
	constant := make([]stats.Bucket, 20)
	score, err := Periodicity(constant, 5)
	if err != nil {
		t.Fatal(err)
	}
	if score != 0 {
		t.Errorf("constant signal score %v, want 0", score)
	}
}

// TestPeriodicityLagEdgeCases pins the lag bounds and the exact
// autocorrelation values on an alternating 0/1 signal of 6 buckets
// (mean 0.5, every deviation ±0.5, denominator 6·0.25 = 1.5).
func TestPeriodicityLagEdgeCases(t *testing.T) {
	alternating := []stats.Bucket{
		{Mean: 0}, {Mean: 1}, {Mean: 0}, {Mean: 1}, {Mean: 0}, {Mean: 1},
	}
	cases := []struct {
		name    string
		lag     int
		want    float64
		wantErr bool
	}{
		{"lag zero", 0, 0, true},
		{"lag negative", -3, 0, true},
		// lag 1: 5 adjacent pairs, each -0.25 → -1.25/1.5.
		{"lag one antiphase", 1, -5.0 / 6.0, false},
		// lag 2: 4 in-phase pairs, each +0.25 → 1/1.5.
		{"lag two in phase", 2, 2.0 / 3.0, false},
		// lag n-2 is the largest legal lag: 2 pairs → 0.5/1.5.
		{"lag len minus two", 4, 1.0 / 3.0, false},
		{"lag len minus one", 5, 0, true},
		{"lag equals len", 6, 0, true},
		{"lag beyond len", 10, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Periodicity(alternating, tc.lag)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("lag %d accepted, got %v", tc.lag, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("lag %d: %v", tc.lag, err)
			}
			if diff := got - tc.want; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("lag %d score = %v, want %v", tc.lag, got, tc.want)
			}
		})
	}
}

func TestPeriodicSampler(t *testing.T) {
	e := sim.NewEngine(1)
	val := 0.0
	p, err := NewPeriodicSampler(e, stats.NewArena(), "gauge", 100*time.Millisecond, func() float64 { return val })
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	e.Schedule(time.Second, func() { val = 5 })
	e.Run(2 * time.Second)
	p.Stop()
	e.Run(3 * time.Second)

	pts := p.Series().Points
	if len(pts) < 19 || len(pts) > 22 {
		t.Fatalf("got %d samples in 2s at 100ms, want ~21", len(pts))
	}
	if pts[0].V != 0 {
		t.Errorf("first sample %v, want 0", pts[0].V)
	}
	last := pts[len(pts)-1]
	if last.V != 5 {
		t.Errorf("last sample %v, want 5", last.V)
	}
	// Stopped: no samples past 2s + one period.
	for _, pt := range pts {
		if pt.T > 2100*time.Millisecond {
			t.Errorf("sample after Stop at %v", pt.T)
		}
	}
}

func TestPeriodicSamplerValidation(t *testing.T) {
	e := sim.NewEngine(1)
	a := stats.NewArena()
	g := func() float64 { return 0 }
	if _, err := NewPeriodicSampler(nil, a, "x", time.Second, g); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewPeriodicSampler(e, nil, "x", time.Second, g); err == nil {
		t.Error("nil arena accepted")
	}
	if _, err := NewPeriodicSampler(e, a, "x", 0, g); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewPeriodicSampler(e, a, "x", time.Second, nil); err == nil {
		t.Error("nil gauge accepted")
	}
}
