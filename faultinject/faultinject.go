// Package faultinject is the public chaos-engineering surface of the
// response module: a seed-deterministic Injector that wraps a
// lifecycle.ReplanFunc and the plan-artifact staging path with
// configurable control-plane faults — planner errors, infeasibility,
// deadline-blown slow replans, panics, and bit-flipped or truncated
// plan artifacts.
//
// It is a thin re-export layer over the module's internal injector;
// see DESIGN.md §8 for the failure model and the degraded-mode
// contract the lifecycle manager upholds under injection.
//
//	inj := faultinject.New(faultinject.Config{Seed: 7, ErrorRate: 0.3})
//	mgr := lifecycle.New(sim, ctrl, plan, inj.WrapReplan(replan),
//	        lifecycle.Opts{ArtifactFilter: inj.ArtifactFilter()})
package faultinject

import ifi "response/internal/faultinject"

// Core injector types.
type (
	// Config sets the per-call fault rates (all probabilities in
	// [0, 1]; the zero value injects nothing). Its JSON keys are the
	// controld daemon's wire form: a tenant spec's "faults" object is
	// this struct.
	Config = ifi.Config
	// Counts tallies what an Injector actually did.
	Counts = ifi.Counts
	// Injector injects control-plane faults per one Config.
	Injector = ifi.Injector
)

// ErrInjected is the error returned for an injected generic planner
// failure.
var ErrInjected = ifi.ErrInjected

// New builds an injector. A zero-rate config yields a transparent
// injector (every call passes through).
func New(cfg Config) *Injector { return ifi.New(cfg) }
