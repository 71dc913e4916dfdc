package shard

// WireSeeds hands the wire tests' results to the external test package's
// fuzz target.
func WireSeeds() []*ShardResult {
	return []*ShardResult{wireResult(7, 3), wireResult(2, 2), richResult()}
}
