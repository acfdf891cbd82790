//go:build race

package core

// raceEnabled reports whether the test binary runs under the race
// detector, which makes sync.Pool drop a share of its items on purpose:
// pins on the allocations of the pooled package-level entry points do
// not hold there.
const raceEnabled = true
