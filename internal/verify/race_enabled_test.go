//go:build race

package verify

// raceEnabled reports whether the race detector is active: sync.Pool
// and other runtime paths allocate under race instrumentation, so
// allocation-count assertions are skipped (the -race CI job checks for
// races; the plain job checks the allocation floor).
const raceEnabled = true
