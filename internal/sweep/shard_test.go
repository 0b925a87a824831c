package sweep

import (
	"slices"
	"testing"
)

// TestShardPartition pins the frozen plan: every job index lands in
// exactly one shard, shards own ascending disjoint index sets, and the
// union over shards is 0..jobs-1 in every plan shape — including plans
// with more shards than jobs (empty shards).
func TestShardPartition(t *testing.T) {
	for _, tc := range []struct{ jobs, shards int }{
		{0, 1}, {1, 1}, {1, 3}, {2, 3}, {7, 1}, {7, 2}, {7, 3}, {8, 4}, {8, 8}, {100, 7},
	} {
		seen := make(map[int]int)
		total := 0
		for s := 0; s < tc.shards; s++ {
			indices := ShardIndices(tc.jobs, tc.shards, s)
			if got, want := len(indices), ShardSize(tc.jobs, tc.shards, s); got != want {
				t.Errorf("jobs=%d shards=%d shard=%d: len(indices)=%d, ShardSize=%d", tc.jobs, tc.shards, s, got, want)
			}
			total += len(indices)
			prev := -1
			for _, i := range indices {
				if i <= prev {
					t.Errorf("jobs=%d shards=%d shard=%d: indices not ascending: %v", tc.jobs, tc.shards, s, indices)
				}
				prev = i
				if i%tc.shards != s {
					t.Errorf("index %d listed under shard %d, want shard %d", i, s, i%tc.shards)
				}
				seen[i]++
			}
		}
		if total != tc.jobs {
			t.Errorf("jobs=%d shards=%d: shards own %d indices in total", tc.jobs, tc.shards, total)
		}
		for i := 0; i < tc.jobs; i++ {
			if seen[i] != 1 {
				t.Errorf("jobs=%d shards=%d: index %d owned by %d shards", tc.jobs, tc.shards, i, seen[i])
			}
		}
	}
}

// TestShardFrozenValues pins the exact assignment — index mod shards —
// the same way the DeriveSeed values are pinned: recorded manifests and
// shard artifacts depend on it.
func TestShardFrozenValues(t *testing.T) {
	want := [][]int{{0, 3, 6}, {1, 4}, {2, 5}}
	for s, w := range want {
		if got := ShardIndices(7, 3, s); !slices.Equal(got, w) {
			t.Errorf("ShardIndices(7, 3, %d) = %v, want %v", s, got, w)
		}
	}
}

// TestShardPanics pins that malformed plans fail loudly — they are
// manifest bugs, never data-dependent states.
func TestShardPanics(t *testing.T) {
	for _, f := range []func(){
		func() { ShardSize(4, 0, 0) },
		func() { ShardIndices(4, 0, 0) },
		func() { ShardSize(4, 2, 2) },
		func() { ShardIndices(4, 2, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("malformed shard plan did not panic")
				}
			}()
			f()
		}()
	}
}
