//go:build race

package obs

// raceEnabled lets timing-sensitive tests skip under the race
// detector, whose instrumentation inflates per-op costs ~10x.
const raceEnabled = true
