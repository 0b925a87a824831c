package live

import (
	"testing"
	"time"
)

func TestWindowTrackerValidation(t *testing.T) {
	if _, err := NewWindowTracker(0, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewWindowTracker(time.Second, -1); err == nil {
		t.Error("negative tail threshold accepted")
	}
}

func TestWindowTrackerRotation(t *testing.T) {
	w, err := NewWindowTracker(time.Second, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Unix(1000, 0)

	// Nothing completed before the first boundary.
	w.Observe(epoch, 50*time.Millisecond, 10*time.Millisecond, 40*time.Millisecond, 0, 1, 0)
	w.Observe(epoch.Add(400*time.Millisecond), 200*time.Millisecond, 150*time.Millisecond, 50*time.Millisecond, 0, 2, 1)
	if _, _, ok := w.Last(epoch.Add(900 * time.Millisecond)); ok {
		t.Fatal("window reported complete before its boundary")
	}

	// Crossing the boundary promotes the filled window.
	feat, start, ok := w.Last(epoch.Add(1100 * time.Millisecond))
	if !ok {
		t.Fatal("no completed window after the boundary")
	}
	if start != 0 {
		t.Errorf("window start = %v, want 0", start)
	}
	if feat.Count != 2 || feat.Attempts != 3 || feat.Drops != 1 || feat.TailOver != 1 {
		t.Errorf("window = %+v, want Count 2 Attempts 3 Drops 1 TailOver 1", feat)
	}
	if feat.SumRT != 250*time.Millisecond || feat.SumQueue != 160*time.Millisecond {
		t.Errorf("window sums = %+v", feat)
	}

	// An observation in a later window also rotates.
	w.Observe(epoch.Add(1500*time.Millisecond), 10*time.Millisecond, 0, 10*time.Millisecond, 0, 1, 0)
	w.Observe(epoch.Add(2200*time.Millisecond), 20*time.Millisecond, 0, 20*time.Millisecond, 0, 1, 0)
	feat, start, ok = w.Last(epoch.Add(2300 * time.Millisecond))
	if !ok || start != time.Second || feat.Count != 1 || feat.SumRT != 10*time.Millisecond {
		t.Errorf("second window = %+v at %v (ok %v), want Count 1 SumRT 10ms at 1s", feat, start, ok)
	}

	// Idling across several windows completes an empty one.
	feat, start, ok = w.Last(epoch.Add(5500 * time.Millisecond))
	if !ok || start != 4*time.Second || feat.Count != 0 {
		t.Errorf("idle window = %+v at %v (ok %v), want empty at 4s", feat, start, ok)
	}
}
