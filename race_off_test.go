//go:build !race

package tempest

// raceEnabled reports a -race build, whose instrumented memory accesses
// make wall-clock overhead ratios meaningless.
const raceEnabled = false
