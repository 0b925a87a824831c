package stats

import "testing"

// keepCounter is a Recycler that counts its Recycle calls.
type keepCounter struct{ recycles int }

func (k *keepCounter) Recycle() { k.recycles++ }

// TestArenaKeep pins the keep-slot contract: build runs once per key,
// the same value comes back after Reset, every Reset recycles each kept
// value exactly once, and distinct keys keep distinct values.
func TestArenaKeep(t *testing.T) {
	type key int
	a := NewArena()
	builds := 0
	build := func() Recycler {
		builds++
		return &keepCounter{}
	}
	k1 := a.Keep(key(1), build)
	if again := a.Keep(key(1), build); again != k1 {
		t.Fatal("a second Keep of one key returned a different value")
	}
	k2 := a.Keep(key(2), build)
	if k2 == k1 {
		t.Fatal("two keys share one kept value")
	}
	// Equal underlying values of distinct key types are distinct keys.
	k3 := a.Keep(2, build)
	if k3 == k2 {
		t.Fatal("keys of distinct types share one kept value")
	}
	if builds != 3 {
		t.Fatalf("build ran %d times for 3 keys, want 3", builds)
	}
	for r := 1; r <= 3; r++ {
		a.Reset()
		for i, k := range []Recycler{k1, k2, k3} {
			if got := k.(*keepCounter).recycles; got != r {
				t.Fatalf("after %d resets, kept value %d was recycled %d times", r, i, got)
			}
		}
		if a.Keep(key(1), build) != k1 || a.Keep(key(2), build) != k2 || a.Keep(2, build) != k3 {
			t.Fatalf("reset %d: Keep returned new storage", r)
		}
	}
	if builds != 3 {
		t.Fatalf("build ran %d times over 3 resets, want 3", builds)
	}
}
