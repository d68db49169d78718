//go:build race

package repro_test

// raceEnabled reports whether this test binary was built with the race
// detector, which instruments allocation: the allocation-bound tests skip
// under it.
const raceEnabled = true
