//go:build race

package dataset_test

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation changes heap accounting.
const raceEnabled = true
