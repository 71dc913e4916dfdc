//go:build !race

package dataset_test

const raceEnabled = false
