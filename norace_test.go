//go:build !race

package bgpstream_test

const raceEnabled = false
