//go:build !race

package match_test

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation changes allocation counts.
const raceEnabled = false
