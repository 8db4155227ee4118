// Package lifecycle is the public plan-lifecycle surface of the
// response module: a Manager that closes the REsPoNse control loop by
// monitoring live demand drift against the planned matrix, replanning
// in the background through the context-aware response.Planner, and
// hot-swapping the staged tables into a running simulate.Controller
// with zero traffic disruption.
//
// It is a thin re-export layer over the module's internal lifecycle
// manager; see DESIGN.md §6 for the trigger policy, the swap state
// machine and the rollback rules.
//
//	mgr := lifecycle.New(sim, ctrl, plan, replan, lifecycle.Opts{
//		Policy: lifecycle.Policy{Deviation: 0.1}, // zero fields: defaults
//	})
//	mgr.Start()                   // monitors, replans, swaps
//	...
//	m := mgr.Metrics()            // replans, swaps, migrated flows
//	artifact := mgr.StagedArtifact() // the versioned plan artifact
package lifecycle

import (
	"context"

	"response"
	ilc "response/internal/lifecycle"
	"response/simulate"
)

// Core lifecycle types.
type (
	// Manager monitors deviation, replans off the hot path and
	// hot-swaps plan tables into a running controller.
	Manager = ilc.Manager
	// Opts parameterizes a Manager: the embedded replan Policy plus
	// the values fixed for its lifetime (monitor cadence, replan latency
	// or background mode, drain grace, power-gate model, event trace).
	Opts = ilc.Opts
	// State is the manager's lifecycle state.
	State = ilc.State
	// Metrics are the manager's cumulative counters.
	Metrics = ilc.Metrics
	// Policy is the replan policy (trigger thresholds, replan deadline,
	// retry backoff, degradation threshold), declared once: Opts embeds
	// it, Manager.SetPolicy hot-patches it, and its JSON keys are the
	// controld daemon's create, PATCH and status wire form.
	Policy = ilc.Policy
	// ReplanFunc computes a candidate plan for a live demand matrix.
	ReplanFunc = ilc.ReplanFunc
)

// Lifecycle states.
const (
	StateIdle       = ilc.StateIdle
	StateReplanning = ilc.StateReplanning
	StateSwapping   = ilc.StateSwapping
	StateDegraded   = ilc.StateDegraded
)

// ReplanBudget returns the simulated-seconds compute budget the
// manager attached to a replan context (Policy.ReplanDeadline), if any.
// Fault injectors and deadline-aware planners read it to model
// slowness on the simulated clock.
func ReplanBudget(ctx context.Context) (float64, bool) { return ilc.ReplanBudget(ctx) }

// WarmHint returns the warm-start seed the manager attached to a
// replan context — the promoted plan at launch time — if any. A
// ReplanFunc passes it to response.WithWarmStart so recomputations
// re-prove only the delta; Policy.NoWarmStart suppresses the hint.
func WarmHint(ctx context.Context) (*response.Plan, bool) { return ilc.WarmHint(ctx) }

// New builds a Manager over a running simulator/controller pair.
// current is the installed plan; replan computes candidate
// replacements (typically a response.Planner call with the live
// matrix as WithLowMatrix). Call Start once flows are managed and
// their initial demands set. New panics on opts that fail Validate
// after defaults; check outside input with WithDefaults().Validate().
func New(s *simulate.Simulator, c *simulate.Controller, current *response.Plan, replan ReplanFunc, opts Opts) *Manager {
	return ilc.New(s, c, current, replan, opts)
}
