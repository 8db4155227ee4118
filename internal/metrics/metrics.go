// Package metrics provides the runtime's zero-allocation observability
// counters and a Prometheus text-format renderer over them.
//
// A Runtime is one tenant's bundle of counters, threaded through
// scenario.Config into the TE controller, the simulator and the
// lifecycle manager exactly like the *trace.EventWriter flight
// recorder: every hot-path hook is a nil check plus an atomic add, so
// instrumentation never allocates and the steady-state allocs/op
// pinned by the te/sim benchmarks are unchanged whether metrics are on
// or off.
//
// Counter, FloatCounter and Gauge are plain atomics — safe to read
// from the /metrics scrape goroutine while the owning loop keeps
// writing. Rendering (WritePrometheus) walks a static descriptor table
// metric-major so every sample family gets one HELP/TYPE header and
// one labeled sample per tenant, in registration order.
package metrics

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store sets the count to n: the owner of a counter kept elsewhere
// publishes its value here.
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float64 (seconds of swap
// time, wake latency, …), updated with a CAS loop.
type FloatCounter struct{ bits atomic.Uint64 }

// Add adds v.
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Store sets the sum to v (see Counter.Store).
func (c *FloatCounter) Store(v float64) { c.bits.Store(math.Float64bits(v)) }

// Value returns the current sum.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a last-write-wins float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Runtime is one control loop's counter bundle. All fields are safe
// for concurrent use; a nil *Runtime is a valid "metrics off" sink —
// instrumented code checks the pointer once and skips the adds.
type Runtime struct {
	// TE controller (span "te").
	ProbeRounds  Counter // full probe sweeps over managed flows
	Shifts       Counter // always-on shift-up/down decisions
	WakeRequests Counter // on-demand level wake requests
	Evacuations  Counter // flows moved off a failed or overloaded link
	Retargets    Counter // pending wake retargeted mid-flight
	Handoffs     Counter // demand handed to a woken level
	Retires      Counter // drained levels retired

	// Simulator (span "sim").
	LinkFailures   Counter      // FailLink transitions
	LinkRepairs    Counter      // RepairLink transitions
	LinkSleeps     Counter      // idle links entering Sleeping
	LinkWakes      Counter      // sleeping links starting to wake
	WakeLatencySec FloatCounter // summed sleep→forwarding latency
	AllocEpochs    Counter      // incremental allocator passes
	AllocFlows     Counter      // flows touched across allocator passes

	// Lifecycle manager (span "lifecycle"): stored from the manager's
	// published lifecycle.Metrics snapshot, so each family reads the
	// field of the same name in the tenant status document.
	Checks          Counter      // Metrics.Checks
	Triggers        Counter      // Metrics.Triggers
	Replans         Counter      // Metrics.Replans
	ReplanFailed    Counter      // Metrics.ReplanFailed
	ReplanTimeouts  Counter      // Metrics.ReplanTimeouts
	ReplanPanics    Counter      // Metrics.ReplanPanics
	RejectedInvalid Counter      // Metrics.RejectedInvalid
	RejectedPower   Counter      // Metrics.RejectedPower
	Unchanged       Counter      // Metrics.Unchanged
	Superseded      Counter      // Metrics.Superseded
	Retries         Counter      // Metrics.Retries
	Swaps           Counter      // Metrics.Swaps
	SwapsDone       Counter      // Metrics.SwapsDone
	MigratedFlows   Counter      // Metrics.MigratedFlows
	SwapDurationSec FloatCounter // Metrics.SwapSec
	DegradedEntered Counter      // Metrics.DegradedEntered
	DegradedExited  Counter      // Metrics.DegradedExited
	DegradedSec     FloatCounter // Metrics.DegradedSec
	SimSeconds      Gauge        // sim clock at the manager's latest step
}
