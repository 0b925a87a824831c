package sweep

// Shard math for the distributed fabric (internal/dsweep): a sweep of n
// jobs is partitioned across S shards by round-robin over the job index.
// Because every job is a pure function of its index (the package
// contract), the partition is safe by construction: a shard can run in
// another process — or on another machine — and the merged, index-ordered
// results are exactly what a single-process RunState would have produced.
//
// The plan is frozen: manifests, shard artifact files, and checkpoint resume
// positions all depend on job index i belonging to shard i mod shards, so
// changing it is a breaking change to every recorded distributed sweep.

// ShardSize returns the number of jobs a shard owns in a sweep of jobs
// jobs: the size of {i : 0 <= i < jobs, i mod shards == shard}.
func ShardSize(jobs, shards, shard int) int {
	checkShard(shards, shard)
	if shard >= jobs {
		return 0
	}
	return (jobs - shard + shards - 1) / shards
}

// ShardIndices returns the ascending job indices owned by shard. The
// sequence is the order a shard worker must execute and checkpoint in:
// resuming after k completed records means continuing at element k.
func ShardIndices(jobs, shards, shard int) []int {
	n := ShardSize(jobs, shards, shard)
	if n == 0 {
		return nil
	}
	indices := make([]int, 0, n)
	for i := shard; i < jobs; i += shards {
		indices = append(indices, i)
	}
	return indices
}

// checkShard validates a (shards, shard) pair; violations are manifest
// bugs, not data-dependent states, so they panic.
func checkShard(shards, shard int) {
	if shards < 1 {
		panic("sweep: shard plan needs at least one shard")
	}
	if shard < 0 || shard >= shards {
		panic("sweep: shard outside plan")
	}
}
