//go:build !race

package ahe

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation inflates allocation counts.
const raceEnabled = false
