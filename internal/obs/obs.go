// Package obs is the observability layer of the repository: lightweight,
// dependency-free counters and gauges, stage timers, run reports
// serialized to JSON, progress reporting for long sweeps and simulations,
// and uniform profiling flags for the command-line tools.
//
// Everything here is built so that *disabled* instrumentation costs
// nothing on the hot paths: probes and progress hooks are plain nil
// checks at the call sites, and all exported methods on pointer types are
// nil-safe, so callers can thread an unconditionally-declared probe
// through a simulation and only allocate it when observability was
// requested.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing event count, safe for concurrent
// use. The zero value is ready; a nil *Counter discards updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count; zero on a nil counter.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float64 metric, safe for concurrent use. The zero
// value reads as 0; a nil *Gauge discards updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Load returns the stored value; zero on a nil gauge.
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
