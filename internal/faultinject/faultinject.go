// Package faultinject is the chaos layer of the control plane: a
// seed-deterministic Injector that wraps a lifecycle.ReplanFunc and
// the plan-artifact staging path to produce the control-plane faults a
// production deployment must survive — planner errors, infeasibility,
// deadline-blown slow replans, outright panics, and bit-flipped or
// truncated plan artifacts — each at an independently configurable
// rate.
//
// The injector exists so the graceful-degradation machinery of
// internal/lifecycle (bounded retry with decorrelated-jitter backoff,
// panic recovery, the last-known-good artifact slot, the Degraded
// all-on fallback) can be proven under adversarial conditions rather
// than assumed: the chaos soak tests and the response-sim -fail-rate
// flag drive the full monitor→replan→stage→swap loop through it.
//
// Determinism: every fault decision is drawn from one rand.Rand seeded
// by Config.Seed, in call order. The lifecycle manager replans inline,
// so every call happens on the simulator's event loop and an identical
// (scenario seed, fault config) reproduces the exact fault sequence.
// The injector is nevertheless safe for concurrent use (a mutex
// serializes draws and counts).
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"response"
	"response/internal/lifecycle"
	"response/internal/traffic"
)

// ErrInjected is the error returned for an injected generic planner
// failure. Injected infeasibility returns response.ErrInfeasible and
// injected deadline blowups wrap context.DeadlineExceeded, so the
// lifecycle manager classifies each the way it would the real fault.
var ErrInjected = errors.New("faultinject: injected planner error")

// Config sets the per-call fault rates. All rates are probabilities in
// [0, 1] and are evaluated in the field order below — at most one
// replan fault and one artifact fault fire per call. The zero value
// injects nothing. The JSON keys are the controld daemon's wire form
// (a tenant spec's "faults" object is this struct).
type Config struct {
	// Seed drives every fault decision (default 1). Identical
	// (Seed, rates, call sequence) reproduce the identical faults.
	Seed int64 `json:"seed,omitempty"`
	// FailFirst deterministically fails the first FailFirst replan
	// calls with ErrInjected before any rate applies — a control-plane
	// outage window, used to force the manager through its Degraded
	// entry/exit path regardless of the dice.
	FailFirst int `json:"fail_first,omitempty"`
	// ErrorRate is the probability a replan returns ErrInjected.
	ErrorRate float64 `json:"error_rate,omitempty"`
	// InfeasibleRate is the probability a replan returns
	// response.ErrInfeasible (the planner's honest "no plan exists").
	InfeasibleRate float64 `json:"infeasible_rate,omitempty"`
	// PanicRate is the probability a replan panics mid-computation.
	PanicRate float64 `json:"panic_rate,omitempty"`
	// SlowRate is the probability a replan runs so slowly it blows the
	// manager's replan deadline: when the context carries a budget
	// (lifecycle.Policy.ReplanDeadline), the call returns an error
	// wrapping context.DeadlineExceeded; with no budget the slowness
	// is harmless and the underlying replan proceeds.
	SlowRate float64 `json:"slow_rate,omitempty"`
	// CorruptRate is the probability the staged plan artifact has one
	// bit flipped before the gate re-reads it; TruncateRate the
	// probability it is truncated instead. Both must be caught by the
	// artifact round-trip gate (CRC / header validation), never
	// installed.
	CorruptRate  float64 `json:"corrupt_rate,omitempty"`
	TruncateRate float64 `json:"truncate_rate,omitempty"`
}

// Any reports whether the config can inject at least one fault.
func (c Config) Any() bool {
	return c.FailFirst > 0 || c.ErrorRate > 0 || c.InfeasibleRate > 0 ||
		c.PanicRate > 0 || c.SlowRate > 0 || c.CorruptRate > 0 || c.TruncateRate > 0
}

// Counts tallies what the injector actually did.
type Counts struct {
	// Replans counts wrapped replan calls; Artifacts counts artifact
	// filter applications.
	Replans   int
	Artifacts int
	// Per-fault tallies.
	Errors     int
	Infeasible int
	Panics     int
	Slow       int
	Corrupted  int
	Truncated  int
}

// Faults is the total number of injected faults.
func (c Counts) Faults() int {
	return c.Errors + c.Infeasible + c.Panics + c.Slow + c.Corrupted + c.Truncated
}

// Injector injects control-plane faults per one Config. Create with
// New; wire WrapReplan around the manager's ReplanFunc and
// ArtifactFilter into lifecycle.Opts.ArtifactFilter.
type Injector struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	counts Counts
}

// New builds an injector. A zero-rate config yields a transparent
// injector (every call passes through).
func New(cfg Config) *Injector {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Counts returns a snapshot of the injection tallies.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// replanFault enumerates the decided fault for one replan call.
type replanFault uint8

const (
	faultNone replanFault = iota
	faultError
	faultInfeasible
	faultPanic
	faultSlow
)

// decideReplan draws one replan fault under the lock.
func (in *Injector) decideReplan() replanFault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts.Replans++
	if in.counts.Replans <= in.cfg.FailFirst {
		in.counts.Errors++
		return faultError
	}
	v := in.rng.Float64()
	switch {
	case v < in.cfg.ErrorRate:
		in.counts.Errors++
		return faultError
	case v < in.cfg.ErrorRate+in.cfg.InfeasibleRate:
		in.counts.Infeasible++
		return faultInfeasible
	case v < in.cfg.ErrorRate+in.cfg.InfeasibleRate+in.cfg.PanicRate:
		in.counts.Panics++
		return faultPanic
	case v < in.cfg.ErrorRate+in.cfg.InfeasibleRate+in.cfg.PanicRate+in.cfg.SlowRate:
		in.counts.Slow++
		return faultSlow
	}
	return faultNone
}

// WrapReplan returns fn with the configured replan faults injected in
// front of it. The wrapped function is a drop-in lifecycle.ReplanFunc.
func (in *Injector) WrapReplan(fn lifecycle.ReplanFunc) lifecycle.ReplanFunc {
	return func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		switch in.decideReplan() {
		case faultError:
			return nil, ErrInjected
		case faultInfeasible:
			return nil, fmt.Errorf("faultinject: %w", response.ErrInfeasible)
		case faultPanic:
			panic("faultinject: injected replan panic")
		case faultSlow:
			if _, ok := lifecycle.ReplanBudget(ctx); ok {
				// The modeled computation outlives the manager's
				// deadline: report what the watchdog would.
				return nil, fmt.Errorf("faultinject: replan overran its budget: %w",
					context.DeadlineExceeded)
			}
			// No deadline configured: slowness is harmless.
		}
		return fn(ctx, live)
	}
}

// ArtifactFilter returns the staging-path filter: it corrupts (one
// flipped bit) or truncates the serialized plan artifact at the
// configured rates, leaving it untouched otherwise. The returned
// function never mutates its input slice.
func (in *Injector) ArtifactFilter() func([]byte) []byte {
	return func(b []byte) []byte {
		in.mu.Lock()
		defer in.mu.Unlock()
		in.counts.Artifacts++
		if len(b) == 0 {
			return b
		}
		v := in.rng.Float64()
		switch {
		case v < in.cfg.CorruptRate:
			in.counts.Corrupted++
			out := append([]byte(nil), b...)
			bit := in.rng.Intn(len(out) * 8)
			out[bit/8] ^= 1 << uint(bit%8)
			return out
		case v < in.cfg.CorruptRate+in.cfg.TruncateRate:
			in.counts.Truncated++
			return b[:in.rng.Intn(len(b))]
		}
		return b
	}
}
