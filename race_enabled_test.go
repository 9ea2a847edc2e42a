//go:build race

package netdebug_test

// raceEnabled reports whether the race detector is active: allocation-
// count assertions are skipped under race instrumentation.
const raceEnabled = true
