//go:build race

package dataplane

// raceEnabled reports that the race detector is active. Its
// instrumentation is what a timing ratio would time, and it allocates on
// the deparser's inject-every-field path (TestEmitWithoutExtractAllocFree
// reads 1 per packet under -race); the other allocation floors hold under
// -race too and are asserted there.
const raceEnabled = true
