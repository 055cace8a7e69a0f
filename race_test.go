//go:build race

package bgpstream_test

// raceEnabled skips the allocation gates under the race detector,
// whose instrumentation changes allocation counts.
const raceEnabled = true
