//go:build race

package main

// raceEnabled lets allocation guards skip under the race detector,
// whose instrumentation allocates on its own.
const raceEnabled = true
