package shard

// WireSeeds hands the wire tests' results to the external test package's
// fuzz target: shards with every row, none, every other row and only the
// last row flagged, and the result that reaches every corner of the frame.
func WireSeeds() []*ShardResult {
	return []*ShardResult{
		wireResult(7, 3, evenRows), wireResult(2, 2, evenRows), richResult(),
		wireResult(40, 3, func(int) bool { return false }),
		wireResult(40, 3, func(int) bool { return true }),
		wireResult(40, 3, func(row int) bool { return row == 39 }),
	}
}

// GapOverflowFrame is a 3-row, 2-attribute frame whose second report's
// row gap wraps around onto an earlier row.
func GapOverflowFrame() []byte { return gapOverflowFrame() }
