//go:build race

package eventmatch_test

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation changes allocation counts.
const raceEnabled = true
