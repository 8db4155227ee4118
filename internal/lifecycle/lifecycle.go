// Package lifecycle closes the REsPoNse control loop: it watches live
// demand drift away from the matrix the installed plan was computed
// for, replans off the hot path through the context-aware public
// planner, stages the result as a versioned plan artifact behind
// fingerprint and power gates, and hot-swaps the always-on/on-demand/
// failover tables into the running controller with zero traffic
// disruption.
//
// The paper's operational claim (Figure 1b) is that such swaps are
// rare — a handful per hour on the GÉANT replay — because the
// energy-critical paths are largely demand-oblivious. This package is
// the component that *acts* on that claim instead of only measuring
// it: the deviation trigger uses the same per-pair relative-change
// statistic as the §3 trace analytics (internal/analysis), and the
// manager keeps an analysis.Replay of the active plan's fingerprint at
// every check, so the live loop's recomputation rate can be read with
// the very machinery that produced Figure 1b.
//
// # Trigger policy
//
// Every CheckEvery seconds the manager aggregates the offered demand
// of the controller's managed flows into a live matrix and compares it
// per pair against the planned baseline. A replan fires when the
// fraction of pairs whose relative change is at least Deviation
// reaches Spread — but only if the trigger is armed (hysteresis: after
// firing it re-arms once the spread falls below Hysteresis×Spread) and
// at least MinInterval has passed since the last replan.
//
// # Swap state machine
//
//	Idle ──trigger──▶ Replanning ──stage──▶ Swapping ──all retired──▶ Idle
//	  ▲                   │                    (gates: validity,
//	  │                   ├──error──▶ retry (backoff) fingerprint, power)
//	  │                   │              │
//	  │                   │   ≥ DegradedAfter consecutive failures
//	  │                   │              ▼
//	  └──────replan succeeds────── Degraded (all-on pinned)
//
// Replanning runs the planner (in a goroutine under Background, with
// cancellation; otherwise inline with a modeled ReplanLatency before
// staging). A panicking ReplanFunc is recovered and counted as a
// failed cycle; a replan that outlives ReplanDeadline is abandoned as
// a timeout. Staging re-checks drift against the trigger snapshot — a
// result the demand has already moved past is abandoned (Superseded)
// and the replan restarts from a fresh snapshot. A staged plan is
// serialized and re-read as a PR 2 plan artifact, then gated: invalid
// tables, a corrupted artifact or a round-trip mismatch reject it
// (the last-known-good artifact slot is untouched), an unchanged
// fingerprint makes it a no-op (the paper's common case), and a plan
// strictly worse in power under the live matrix is rejected. Only then
// does the swap begin: the new always-on set is pinned (waking its
// sleeping links), and every managed flow whose installed levels
// differ under the new plan is retargeted through
// te.Controller.Retarget — traffic keeps flowing on the old tables
// until each new always-on path forwards, then demand hands over
// atomically and the old flow drains and retires.
//
// # Failure handling and degraded mode
//
// A failed cycle — replan error, timeout, panic, or a staging rejected
// as invalid — re-arms the trigger and books a retry after a
// decorrelated-jitter backoff (deterministic from Opts.Seed), bounded
// below by RetryBase and above by RetryMax. After DegradedAfter
// consecutive failed cycles the manager enters the explicit Degraded
// state: it pins the all-on element set — the paper's always-correct
// fallback, every link powered and forwarding — and keeps retrying at
// the backoff cap. The first successful cycle (a swap, an unchanged
// fingerprint, or even a power-gate rejection, all of which prove the
// control plane computes valid plans again) exits Degraded and
// restores the installed plan's always-on pinning. Every transition is
// counted in Metrics and emitted on the JSONL trace.
//
// # Rollback rules
//
// A pair absent from (or unroutable in) the staged plan keeps its old
// tables — its flows are not retargeted and keep forwarding (counted
// in KeptPairs). A replan error (infeasible, canceled) keeps the old
// plan and baseline intact. Mid-swap link failures are handled by the
// controller's ordinary failure machinery on whichever tables the flow
// holds at that instant.
package lifecycle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"response"
	"response/internal/analysis"
	"response/internal/metrics"
	"response/internal/power"
	"response/internal/sim"
	"response/internal/stats"
	"response/internal/te"
	"response/internal/topo"
	"response/internal/trace"
	"response/internal/traffic"
)

// State is the manager's lifecycle state.
type State uint8

// Lifecycle states.
const (
	// StateIdle: monitoring only; the installed plan is considered
	// current (the steady state).
	StateIdle State = iota
	// StateReplanning: a replan is in flight (inline latency window or
	// background goroutine); its result has not been staged yet.
	StateReplanning
	// StateSwapping: a staged plan passed the gates and its table
	// hot-swap is in progress; old flows are draining.
	StateSwapping
	// StateDegraded: DegradedAfter consecutive cycles failed; the
	// all-on element set is pinned (the always-correct fallback) and
	// replans keep retrying until one succeeds.
	StateDegraded
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateReplanning:
		return "replanning"
	case StateSwapping:
		return "swapping"
	case StateDegraded:
		return "degraded"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// ReplanFunc computes a fresh plan for the live demand matrix. It runs
// off the simulator's hot path (in its own goroutine under
// Opts.Background) and must honor ctx cancellation — the public
// response.Planner does. A panic is recovered by the manager and
// counted as a failed cycle.
type ReplanFunc func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error)

// replanBudgetKey carries the manager's replan compute budget through
// the context, so a ReplanFunc (or a fault injector wrapping one) can
// model deadline pressure on the simulated clock, where real context
// deadlines — wall-clock — cannot reach.
type replanBudgetKey struct{}

func withReplanBudget(ctx context.Context, sec float64) context.Context {
	return context.WithValue(ctx, replanBudgetKey{}, sec)
}

// ReplanBudget returns the simulated-seconds compute budget the
// manager attached to a replan context (Policy.ReplanDeadline), if any.
func ReplanBudget(ctx context.Context) (float64, bool) {
	v, ok := ctx.Value(replanBudgetKey{}).(float64)
	return v, ok
}

// warmHintKey carries the manager's promoted plan through the replan
// context, so a ReplanFunc can warm-start the subset search from it
// (response.WithWarmStart) instead of planning from scratch. It rides
// the context for the same reason ReplanBudget does: the ReplanFunc
// signature is fixed, and fault injectors wrap it transparently.
type warmHintKey struct{}

func withWarmHint(ctx context.Context, p *response.Plan) context.Context {
	return context.WithValue(ctx, warmHintKey{}, p)
}

// WarmHint returns the warm-start seed the manager attached to a
// replan context — the promoted (current) plan at launch time — if
// any. Managers attach it unless Policy.NoWarmStart disables
// warm-starting.
func WarmHint(ctx context.Context) (*response.Plan, bool) {
	p, ok := ctx.Value(warmHintKey{}).(*response.Plan)
	return p, ok
}

// panicError wraps a recovered ReplanFunc panic.
type panicError struct{ v any }

func (e panicError) Error() string { return fmt.Sprintf("lifecycle: replan panicked: %v", e.v) }

// Policy is the replan policy: the deviation-trigger thresholds, the
// replan deadline, the retry backoff and the degradation threshold —
// the nine values an operator tunes on a live control loop. It is
// declared once, here: Opts embeds it, scenario.Config carries one, and
// the controld daemon reads, creates and hot-patches tenants with it
// under the JSON keys below, so every way in speaks one key set and
// runs one Validate. A zero field takes its default when a Manager is
// built (and is omitted from the JSON form, so a partly filled Policy
// marshals to a request for the defaults); SetPolicy applies a Policy
// verbatim.
type Policy struct {
	// Deviation is the per-pair relative demand change that counts a
	// pair as deviating (default 0.2 = 20%).
	Deviation float64 `json:"deviation,omitempty"`
	// Spread is the fraction of planned pairs that must deviate to
	// fire a replan (default 0.25).
	Spread float64 `json:"spread,omitempty"`
	// Hysteresis re-arms the trigger only once the deviating fraction
	// falls below Hysteresis×Spread (default 0.5). After a completed
	// replan the baseline resets to the trigger snapshot, so ordinary
	// drift re-arms within a check or two; the band exists so demand
	// hovering just under the trigger level cannot fire back-to-back
	// replans.
	Hysteresis float64 `json:"hysteresis,omitempty"`
	// MinInterval is the minimum simulated time between deviation-
	// triggered replans (default 1800 s — bounding the recomputation
	// rate the paper measures at ~4/hour). Failure retries are paced
	// by the backoff instead.
	MinInterval float64 `json:"min_interval_sec,omitempty"`
	// ReplanDeadline is the simulated-seconds budget for one replan
	// computation (0 = unbounded, the default). The budget travels on
	// the replan context (ReplanBudget) so inline replans — which
	// compute instantly in wall time — can honor it; a background
	// replan still in flight when the budget elapses on the simulated
	// clock is canceled. A blown deadline is a failed cycle
	// (Metrics.ReplanTimeouts).
	ReplanDeadline float64 `json:"replan_deadline_sec,omitempty"`
	// RetryBase and RetryMax bound the decorrelated-jitter backoff
	// between a failed cycle and its retry (defaults 60 s and
	// MinInterval/2, at least RetryBase). Retries bypass the deviation
	// trigger and MinInterval — they re-run an already-admitted cycle.
	RetryBase float64 `json:"retry_base_sec,omitempty"`
	RetryMax  float64 `json:"retry_max_sec,omitempty"`
	// DegradedAfter is the number of consecutive failed cycles that
	// trips the manager into StateDegraded, pinning the all-on element
	// set until a cycle succeeds (default 3; negative disables
	// degradation).
	DegradedAfter int `json:"degraded_after,omitempty"`
	// NoWarmStart stops the manager from attaching the promoted plan
	// to replan contexts as a warm-start seed (see WarmHint). Replans
	// then always run cold, the pre-warm-start behavior.
	NoWarmStart bool `json:"no_warm_start,omitempty"`
}

// Validate reports the first reason p cannot drive a manager. Every
// field has a clause here or is noted as unbounded; the policy tests
// hold a new field to the same.
func (p Policy) Validate() error {
	switch {
	case !(p.Deviation > 0 && p.Deviation <= 10):
		return fmt.Errorf("lifecycle: deviation must be in (0, 10], got %g", p.Deviation)
	case !(p.Spread > 0 && p.Spread <= 1):
		return fmt.Errorf("lifecycle: spread must be in (0, 1], got %g", p.Spread)
	case !(p.Hysteresis > 0 && p.Hysteresis <= 1):
		return fmt.Errorf("lifecycle: hysteresis must be in (0, 1], got %g", p.Hysteresis)
	case !(p.MinInterval >= 0):
		return fmt.Errorf("lifecycle: min interval must be >= 0, got %g", p.MinInterval)
	case !(p.ReplanDeadline >= 0):
		return fmt.Errorf("lifecycle: replan deadline must be >= 0, got %g", p.ReplanDeadline)
	case !(p.RetryBase > 0):
		return fmt.Errorf("lifecycle: retry base must be > 0, got %g", p.RetryBase)
	case !(p.RetryMax >= p.RetryBase):
		return fmt.Errorf("lifecycle: retry max %g below retry base %g", p.RetryMax, p.RetryBase)
	case p.DegradedAfter == 0:
		return fmt.Errorf("lifecycle: degraded-after must be nonzero (negative disables)")
	}
	// NoWarmStart is unbounded: both values are legal.
	return nil
}

// Opts parameterizes a Manager: the replan Policy plus the values fixed
// for the manager's lifetime.
type Opts struct {
	// Policy is the hot-patchable part (Manager.SetPolicy).
	Policy
	// CheckEvery is the monitor cadence in simulated seconds (default
	// 900, the GÉANT trace interval).
	CheckEvery float64
	// ReplanLatency models the off-hot-path compute+deploy delay in
	// simulated seconds before an inline replan's result is staged
	// (default 60). Ignored under Background, where wall-clock compute
	// time takes its place.
	ReplanLatency float64
	// Seed drives the backoff jitter (default 1), keeping retry
	// schedules — and therefore whole chaos replays — deterministic
	// per seed.
	Seed int64
	// Background runs ReplanFunc in its own goroutine with a
	// cancellable context; the result is staged at the first check
	// after it completes. Completion timing then depends on wall-clock
	// speed, so runs are no longer seed-deterministic — the default
	// (inline + ReplanLatency) keeps the replay pinnable.
	Background bool
	// DrainGrace is how long retired flows keep their (idle) old
	// tables installed after handoff (default: the controller period).
	DrainGrace float64
	// Model prices elements for the power gate (default Cisco12000).
	Model response.PowerModel
	// NoPowerGate disables the strictly-worse-in-power rejection.
	NoPowerGate bool
	// ArtifactFilter, when non-nil, transforms the serialized plan
	// artifact between the staging write and the gate's re-read — the
	// fault-injection hook (internal/faultinject corrupts or truncates
	// through it). A filtered artifact that no longer round-trips is
	// rejected and the last-known-good slot is left untouched.
	ArtifactFilter func([]byte) []byte
	// Events, when non-nil, receives the lifecycle transition trace
	// (span "lifecycle": check/trigger/replan/stage/swap/retry/
	// degraded/recovered/...).
	Events *trace.EventWriter
	// Metrics, when non-nil, receives zero-alloc counter increments
	// mirroring the Metrics snapshot for concurrent scrapers (replan
	// outcomes, swap durations, degraded time) — the /metrics feed.
	Metrics *metrics.Runtime
	// OnSwap, when non-nil, runs at each migrated flow's demand
	// handoff; applications that hold *Flow references re-point them
	// here.
	OnSwap func(old, new *sim.Flow)
}

// powerGateMaxUtil is the utilization ceiling of the power-gate
// evaluation: the controller's activation threshold.
const powerGateMaxUtil = 0.9

// WithDefaults returns o with every zero setting replaced by its
// default (DrainGrace excepted: its default is the controller period,
// which New fills).
func (o Opts) WithDefaults() Opts {
	if o.CheckEvery == 0 {
		o.CheckEvery = 900
	}
	if o.Deviation == 0 {
		o.Deviation = 0.2
	}
	if o.Spread == 0 {
		o.Spread = 0.25
	}
	if o.Hysteresis == 0 {
		o.Hysteresis = 0.5
	}
	if o.MinInterval == 0 {
		o.MinInterval = 1800
	}
	if o.ReplanLatency == 0 {
		o.ReplanLatency = 60
	}
	if o.RetryBase == 0 {
		o.RetryBase = 60
	}
	if o.RetryMax == 0 {
		o.RetryMax = math.Max(o.MinInterval/2, o.RetryBase)
	}
	if o.DegradedAfter == 0 {
		o.DegradedAfter = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Model == nil {
		o.Model = power.Cisco12000{}
	}
	return o
}

// Validate reports the first reason o (defaults applied) cannot drive a
// manager: the Policy bounds plus the two lifetime values a bad input
// could wedge the event loop with.
func (o Opts) Validate() error {
	switch {
	case !(o.CheckEvery > 0):
		return fmt.Errorf("lifecycle: check interval must be > 0, got %g", o.CheckEvery)
	case !(o.ReplanLatency >= 0):
		return fmt.Errorf("lifecycle: replan latency must be >= 0, got %g", o.ReplanLatency)
	}
	return o.Policy.Validate()
}

// Metrics are the manager's cumulative counters.
type Metrics struct {
	// Checks counts monitor ticks; LastDeviation is the deviating-pair
	// fraction observed at the latest one.
	Checks        int
	LastDeviation float64
	// Triggers counts replans fired by the deviation policy; Replans
	// counts completed replan computations (triggered, retried or
	// forced); Retries counts backoff-paced retries of failed cycles.
	Triggers int
	Replans  int
	Retries  int
	// Superseded counts replan results abandoned because demand had
	// already drifted past the trigger snapshot when they completed.
	Superseded int
	// ReplanFailed counts replan errors (infeasible, injected,
	// canceled, ...); ReplanTimeouts the subset abandoned for blowing
	// ReplanDeadline; ReplanPanics the subset that panicked and was
	// recovered. ConsecutiveFailures is the current failed-cycle
	// streak (staging rejections included), reset by any success.
	ReplanFailed        int
	ReplanTimeouts      int
	ReplanPanics        int
	ConsecutiveFailures int
	// RejectedInvalid counts staged plans failing structural
	// validation or the artifact round trip (bit-flipped or truncated
	// artifacts land here); RejectedPower counts plans strictly worse
	// in power under the live matrix.
	RejectedInvalid int
	RejectedPower   int
	// Unchanged counts replans whose tables fingerprint-matched the
	// installed plan — recomputation without redeployment, the paper's
	// common case.
	Unchanged int
	// DegradedEntered/DegradedExited count transitions through the
	// all-on fallback state; DegradedSec is the total simulated time
	// spent in it.
	DegradedEntered int
	DegradedExited  int
	DegradedSec     float64
	// Swaps counts hot-swaps begun; SwapsDone counts swaps fully
	// drained; MigratedFlows counts flows retargeted across all swaps.
	Swaps         int
	SwapsDone     int
	MigratedFlows int
	// KeptPairs counts managed pairs that retained their old tables
	// across swaps because the staged plan had no (usable) entry for
	// them — the rollback rule.
	KeptPairs int
}

// Manager is the plan lifecycle manager: monitor, replanner and
// hot-swapper over one simulator/controller pair. Drive it entirely
// from the simulator's event loop (it schedules itself); it is not
// safe for concurrent use except for the background replan goroutine
// it owns.
type Manager struct {
	s      *sim.Simulator
	c      *te.Controller
	replan ReplanFunc
	opts   Opts

	current *response.Plan
	planned *traffic.Matrix // demand baseline of the current plan
	trigger *traffic.Matrix // live snapshot at the last trigger

	state         State
	armed         bool
	stopped       bool
	lastReplanAt  float64
	pendingRetire int
	lastMigrated  int     // flows migrated by the in-progress/last swap
	swapStartAt   float64 // sim time the in-progress swap began
	artifact      []byte

	// failure machinery
	rng           *rand.Rand
	backoff       float64 // previous retry delay (decorrelated jitter state)
	consecFail    int
	retryPending  bool
	timedOut      bool    // the in-flight replan was canceled by the deadline
	degradedSince float64 // entry time of the current Degraded episode

	cancel   context.CancelFunc
	inFlight bool // a background replan goroutine is running
	gen      int  // replan generation, guards stale deadline events
	resultCh chan replanOutcome

	hist analysis.Replay
	met  Metrics

	// Concurrent-read snapshot of the counters and state, re-published
	// at the end of every manager step on the driving goroutine.
	// Metrics and State read it, so pollers (the controld daemon) can
	// observe a running manager from any goroutine without touching the
	// live event-loop fields.
	snapMu    sync.Mutex
	snapMet   Metrics
	snapState State

	// reusable scratch for the per-check deviation computation
	live   *traffic.Matrix
	series traffic.Series
}

type replanOutcome struct {
	plan *response.Plan
	err  error
}

// New builds a manager over a running simulator/controller pair.
// current is the installed plan; replan computes candidate
// replacements. Call Start once flows are managed and their initial
// demands set — the live matrix at that point becomes the planned
// baseline.
//
// New fills opts' zero settings with their defaults and panics if the
// result fails Opts.Validate — a non-positive CheckEvery, say, would
// otherwise spin the event loop forever. Callers passing outside input
// run opts.WithDefaults().Validate() first and report the error.
func New(s *sim.Simulator, c *te.Controller, current *response.Plan, replan ReplanFunc, opts Opts) *Manager {
	opts = opts.WithDefaults()
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	if opts.DrainGrace == 0 {
		opts.DrainGrace = c.Period()
	}
	m := &Manager{
		s:       s,
		c:       c,
		replan:  replan,
		opts:    opts,
		current: current,
		armed:   true,
		state:   StateIdle,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		live:    traffic.NewMatrix(),
		series:  traffic.Series{Matrices: make([]*traffic.Matrix, 0, 2)},
	}
	m.lastReplanAt = math.Inf(-1)
	m.resultCh = make(chan replanOutcome, 1)
	m.hist.IntervalSec = opts.CheckEvery
	m.publish()
	return m
}

// publish re-copies the live counters and state into the concurrent-
// read snapshot. It runs at the end of every manager step, on the
// goroutine driving the simulator — the only writer of the live fields
// — so the snapshot is exact whenever the event loop is quiescent and
// at most one step stale while it runs.
func (m *Manager) publish() {
	met := m.met
	if m.state == StateDegraded {
		met.DegradedSec += m.s.Now() - m.degradedSince
	}
	m.snapMu.Lock()
	m.snapMet = met
	m.snapState = m.state
	m.snapMu.Unlock()
}

// Start captures the planned-demand baseline from the currently
// managed flows and begins periodic deviation checks.
func (m *Manager) Start() {
	m.buildLive()
	m.planned = m.live.Clone()
	var tick func()
	tick = func() {
		if m.stopped {
			return
		}
		m.check()
		m.s.After(m.opts.CheckEvery, tick)
	}
	m.s.After(m.opts.CheckEvery, tick)
}

// Stop halts monitoring and cancels any in-flight background replan. A
// background result that completes after Stop is discarded without
// touching the simulator.
func (m *Manager) Stop() {
	m.stopped = true
	if m.cancel != nil {
		m.cancel()
		m.cancel = nil
	}
	m.publish()
}

// State returns the lifecycle state as of the manager's latest step.
// Unlike the other Manager methods it is safe to call from any
// goroutine while the simulator runs.
func (m *Manager) State() State {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	return m.snapState
}

// Metrics returns a copy of the cumulative counters as of the
// manager's latest step (copy-on-read: the returned value never
// aliases live state). Unlike the other Manager methods it is safe to
// call from any goroutine while the simulator runs — pollers such as
// the controld daemon read a running manager this way; while the event
// loop is mid-step the snapshot may trail the live counters by at most
// that one step.
func (m *Manager) Metrics() Metrics {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	return m.snapMet
}

// CurrentPlan returns the installed plan (the staged one as soon as a
// swap begins).
func (m *Manager) CurrentPlan() *response.Plan { return m.current }

// StagedArtifact returns the serialized plan artifact of the most
// recently staged plan — the last-known-good slot (nil before the
// first successful staging). The bytes are the exact PR 2 versioned
// artifact a deployment would ship; a corrupted or rejected staging
// never overwrites them.
func (m *Manager) StagedArtifact() []byte { return m.artifact }

// Policy returns the currently effective policy values.
func (m *Manager) Policy() Policy { return m.opts.Policy }

// SetPolicy validates p and applies it to the running manager: the
// next check, replan and retry use the new thresholds; nothing already
// scheduled (an in-flight replan, a booked retry) is re-timed. Like
// every Manager method except Metrics and State it must run on the
// goroutine driving the simulator.
func (m *Manager) SetPolicy(p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	m.opts.Policy = p
	return nil
}

// History returns the per-check record of the active plan's tables
// fingerprint as an analysis.Replay, so Recomputations and RatePerHour
// read the live loop with the Figure 1b machinery.
func (m *Manager) History() *analysis.Replay { return &m.hist }

// buildLive aggregates managed-flow offered demand into m.live,
// reusing its storage.
func (m *Manager) buildLive() {
	m.live.Reset()
	m.c.EachManaged(func(f *sim.Flow) {
		if f.Demand > 0 {
			m.live.Add(f.O, f.D, f.Demand)
		}
	})
}

// deviation returns the fraction of pairs whose relative demand change
// from base to cur is at least Deviation — the §3 per-pair deviation
// statistic reduced to one trigger number. Pairs carrying live demand
// with no baseline entry (traffic that appeared after the plan) are
// infinitely deviated: PerFlowChanges cannot see them, so they are
// counted explicitly.
func (m *Manager) deviation(base, cur *traffic.Matrix) float64 {
	m.series.Matrices = append(m.series.Matrices[:0], base, cur)
	changes := traffic.PerFlowChanges(&m.series)
	deviating := stats.FractionAtLeast(changes, 100*m.opts.Deviation) * float64(len(changes))
	total := len(changes)
	for _, d := range cur.Demands() {
		if base.Rate(d.O, d.D) <= 0 {
			deviating++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return deviating / float64(total)
}

// check is one monitor tick.
func (m *Manager) check() {
	defer m.publish()
	m.met.Checks++
	if rt := m.opts.Metrics; rt != nil {
		rt.Checks.Inc()
		rt.SimSeconds.Set(m.s.Now())
	}
	m.buildLive()
	dev := m.deviation(m.planned, m.live)
	m.met.LastDeviation = dev
	m.hist.Fingerprints = append(m.hist.Fingerprints, m.current.Fingerprint())
	m.opts.Events.Emit(m.s.Now(), "lifecycle", "check", -1, -1, -1, dev)

	switch m.state {
	case StateSwapping:
		return // drain in progress; nothing to decide
	case StateReplanning, StateDegraded:
		// Poll for a completed background replan; degraded retries and
		// inline stagings schedule themselves.
		if !m.opts.Background || !m.inFlight {
			return
		}
		select {
		case r := <-m.resultCh:
			m.cancel = nil
			m.stage(r.plan, r.err)
		default:
		}
	case StateIdle:
		if !m.armed {
			if dev < m.opts.Spread*m.opts.Hysteresis {
				m.armed = true
			}
			return
		}
		if dev >= m.opts.Spread && m.s.Now()-m.lastReplanAt >= m.opts.MinInterval {
			m.fire()
		}
	}
}

// fire begins a deviation-triggered replan from the current live
// matrix.
func (m *Manager) fire() {
	m.met.Triggers++
	if rt := m.opts.Metrics; rt != nil {
		rt.Triggers.Inc()
	}
	m.opts.Events.Emit(m.s.Now(), "lifecycle", "trigger", -1, -1, -1, m.met.LastDeviation)
	m.launch()
}

// launch starts one replan cycle (trigger or retry) from the current
// live matrix.
func (m *Manager) launch() {
	defer m.publish()
	m.armed = false
	m.lastReplanAt = m.s.Now()
	m.trigger = m.live.Clone()
	if m.state != StateDegraded {
		m.state = StateReplanning
	}
	m.gen++
	if m.opts.Background {
		ctx, cancel := context.WithCancel(context.Background())
		if !m.opts.NoWarmStart && m.current != nil {
			ctx = withWarmHint(ctx, m.current)
		}
		if m.opts.ReplanDeadline > 0 {
			ctx = withReplanBudget(ctx, m.opts.ReplanDeadline)
			gen := m.gen
			m.s.After(m.opts.ReplanDeadline, func() {
				if m.inFlight && m.gen == gen && m.cancel != nil {
					m.timedOut = true
					m.cancel()
					m.cancel = nil
				}
			})
		}
		m.cancel = cancel
		m.inFlight = true
		snapshot := m.trigger
		go func() {
			p, err := m.runReplan(ctx, snapshot)
			m.resultCh <- replanOutcome{plan: p, err: err}
		}()
		return
	}
	// Inline: compute now (the snapshot is the demand at trigger
	// time), stage after the modeled background latency.
	ctx := context.Background()
	if !m.opts.NoWarmStart && m.current != nil {
		ctx = withWarmHint(ctx, m.current)
	}
	if m.opts.ReplanDeadline > 0 {
		ctx = withReplanBudget(ctx, m.opts.ReplanDeadline)
	}
	p, err := m.runReplan(ctx, m.trigger)
	m.s.After(m.opts.ReplanLatency, func() { m.stage(p, err) })
}

// runReplan invokes the ReplanFunc with panic recovery: a panicking
// planner is a failed cycle, not a crashed control loop. The recover
// must live here — for background replans this runs inside the replan
// goroutine, where the manager's event-loop code cannot catch it.
func (m *Manager) runReplan(ctx context.Context, live *traffic.Matrix) (p *response.Plan, err error) {
	defer func() {
		if v := recover(); v != nil {
			p, err = nil, panicError{v: v}
		}
	}()
	return m.replan(ctx, live)
}

// stage receives a completed replan and runs the gate sequence.
func (m *Manager) stage(p *response.Plan, err error) {
	if m.stopped {
		return // late background result after Stop: discard
	}
	defer m.publish()
	m.met.Replans++
	if rt := m.opts.Metrics; rt != nil {
		rt.Replans.Inc()
	}
	m.inFlight = false
	if m.state == StateReplanning {
		m.state = StateIdle
	}
	if err != nil {
		m.met.ReplanFailed++
		op := "replan-error"
		var pe panicError
		switch {
		case errors.As(err, &pe):
			m.met.ReplanPanics++
			op = "replan-panic"
		case m.timedOut || errors.Is(err, context.DeadlineExceeded):
			m.met.ReplanTimeouts++
			op = "replan-timeout"
		}
		m.timedOut = false
		// Old plan and baseline stay; the failed cycle books a retry
		// (and may trip degradation).
		m.failedCycle(op)
		return
	}
	m.timedOut = false
	// Superseded? If demand has drifted past the trigger snapshot as
	// far as the drift that fired it, the result is stale: abandon it
	// and re-arm — the baseline is untouched, so the still-deviating
	// demand restarts the replan from a fresh snapshot at the first
	// check MinInterval allows (the rate bound holds even under a
	// sustained ramp that supersedes every result). In Degraded the
	// retry machinery keeps the recovery attempts coming instead.
	m.buildLive()
	if m.deviation(m.trigger, m.live) >= m.opts.Spread {
		m.met.Superseded++
		if rt := m.opts.Metrics; rt != nil {
			rt.Superseded.Inc()
		}
		m.armed = true
		m.opts.Events.Emit(m.s.Now(), "lifecycle", "superseded", -1, -1, -1, 0)
		if m.state == StateDegraded {
			m.scheduleRetry()
		}
		return
	}
	m.gateAndSwap(p)
}

// failedCycle accounts one failed replan/staging cycle: re-arm, emit,
// degrade after DegradedAfter consecutive failures, book a retry.
func (m *Manager) failedCycle(op string) {
	m.consecFail++
	m.met.ConsecutiveFailures = m.consecFail
	if rt := m.opts.Metrics; rt != nil {
		// The one funnel every failed cycle passes through; the op
		// string names the flavor.
		rt.ReplanFailed.Inc()
		switch op {
		case "replan-panic":
			rt.ReplanPanics.Inc()
		case "replan-timeout":
			rt.ReplanTimeouts.Inc()
		case "reject-invalid":
			rt.RejectedInvalid.Inc()
		}
	}
	m.armed = true
	m.opts.Events.Emit(m.s.Now(), "lifecycle", op, -1, -1, -1, float64(m.consecFail))
	if m.state != StateDegraded && m.opts.DegradedAfter > 0 && m.consecFail >= m.opts.DegradedAfter {
		m.enterDegraded()
	}
	m.scheduleRetry()
}

// enterDegraded pins the all-on element set — every link powered and
// forwarding, the paper's always-correct fallback — until a cycle
// succeeds.
func (m *Manager) enterDegraded() {
	m.state = StateDegraded
	m.met.DegradedEntered++
	if rt := m.opts.Metrics; rt != nil {
		rt.DegradedEntered.Inc()
	}
	m.degradedSince = m.s.Now()
	m.s.SetPinnedOn(topo.AllOn(m.s.T))
	m.opts.Events.Emit(m.s.Now(), "lifecycle", "degraded", -1, -1, -1, float64(m.consecFail))
}

// cycleSucceeded resets the failure machinery after any successful
// cycle and, if the manager was degraded, exits the fallback.
// restorePin re-pins the installed plan's always-on set; the swap path
// passes false because beginSwap pins the staged plan's set itself.
func (m *Manager) cycleSucceeded(restorePin bool) {
	m.consecFail = 0
	m.met.ConsecutiveFailures = 0
	m.backoff = 0
	if m.state != StateDegraded {
		return
	}
	m.met.DegradedExited++
	m.met.DegradedSec += m.s.Now() - m.degradedSince
	if rt := m.opts.Metrics; rt != nil {
		rt.DegradedExited.Inc()
		rt.DegradedSec.Add(m.s.Now() - m.degradedSince)
	}
	m.state = StateIdle
	if restorePin {
		m.s.SetPinnedOn(m.current.AlwaysOnSet())
	}
	m.opts.Events.Emit(m.s.Now(), "lifecycle", "recovered", -1, -1, -1, m.s.Now()-m.degradedSince)
}

// scheduleRetry books the next replan retry after a decorrelated-
// jitter backoff. At fire time the retry is abandoned if the manager
// is busy, stopped, or — outside Degraded — the demand has calmed
// below the trigger level (ordinary monitoring then resumes).
func (m *Manager) scheduleRetry() {
	if m.stopped || m.retryPending {
		return
	}
	m.retryPending = true
	m.s.After(m.nextBackoff(), func() {
		defer m.publish()
		m.retryPending = false
		if m.stopped || (m.state != StateIdle && m.state != StateDegraded) {
			return
		}
		m.buildLive()
		if m.state == StateIdle && m.deviation(m.planned, m.live) < m.opts.Spread {
			m.armed = true
			return
		}
		m.met.Retries++
		if rt := m.opts.Metrics; rt != nil {
			rt.Retries.Inc()
		}
		m.opts.Events.Emit(m.s.Now(), "lifecycle", "retry", -1, -1, -1, float64(m.consecFail))
		m.launch()
	})
}

// nextBackoff advances the decorrelated-jitter schedule: the first
// retry waits RetryBase, each later one a uniform draw from
// [RetryBase, 3×previous], capped at RetryMax.
func (m *Manager) nextBackoff() float64 {
	if m.backoff <= 0 {
		m.backoff = m.opts.RetryBase
	} else {
		m.backoff = m.opts.RetryBase + m.rng.Float64()*(3*m.backoff-m.opts.RetryBase)
		if m.backoff > m.opts.RetryMax {
			m.backoff = m.opts.RetryMax
		}
	}
	return m.backoff
}

// StageAndSwap force-stages an externally computed plan through the
// same gate sequence and hot-swap as a triggered replan — the operator
// override. It is only legal while the manager is idle.
func (m *Manager) StageAndSwap(p *response.Plan) error {
	if m.state != StateIdle {
		return fmt.Errorf("lifecycle: cannot stage in state %v", m.state)
	}
	if p == nil {
		return fmt.Errorf("lifecycle: nil plan")
	}
	m.met.Replans++
	if rt := m.opts.Metrics; rt != nil {
		rt.Replans.Inc()
	}
	m.buildLive()
	m.trigger = m.live.Clone()
	m.gateAndSwap(p)
	m.publish()
	return nil
}

// gateAndSwap runs the stage gates and, if they pass, begins the swap.
func (m *Manager) gateAndSwap(p *response.Plan) {
	now := m.s.Now()
	if p.Topology() != m.s.T || p.Tables().Validate() != nil {
		m.met.RejectedInvalid++
		m.failedCycle("reject-invalid")
		return
	}
	if p.Fingerprint() == m.current.Fingerprint() {
		// Recomputation confirmed the installed tables: adopt the
		// fresher baseline, deploy nothing.
		m.met.Unchanged++
		if rt := m.opts.Metrics; rt != nil {
			rt.Unchanged.Inc()
		}
		m.adoptBaseline()
		m.opts.Events.Emit(now, "lifecycle", "unchanged", -1, -1, -1, 0)
		m.cycleSucceeded(true)
		return
	}
	// Stage as a versioned plan artifact and verify the round trip:
	// what would ship is what was gated. The fault injector's filter
	// sits between the write and the re-read; a corrupted artifact
	// fails the round trip and the last-known-good slot stays.
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		m.met.RejectedInvalid++
		m.failedCycle("reject-invalid")
		return
	}
	raw := buf.Bytes()
	if f := m.opts.ArtifactFilter; f != nil {
		raw = f(raw)
	}
	loaded, err := response.ReadPlanFrom(bytes.NewReader(raw), p.Topology())
	if err != nil || loaded.Fingerprint() != p.Fingerprint() {
		m.met.RejectedInvalid++
		m.failedCycle("reject-invalid")
		return
	}
	m.artifact = raw
	if !m.opts.NoPowerGate {
		cur := m.current.Evaluate(m.live, m.opts.Model, powerGateMaxUtil)
		cand := p.Evaluate(m.live, m.opts.Model, powerGateMaxUtil)
		if cand.Watts > cur.Watts+1e-6 {
			// A worse plan is rejected, but the control plane proved
			// it computes valid plans: the cycle counts as a success
			// (a degraded manager recovers to the installed plan).
			m.met.RejectedPower++
			if rt := m.opts.Metrics; rt != nil {
				rt.RejectedPower.Inc()
			}
			m.adoptBaseline()
			m.opts.Events.Emit(now, "lifecycle", "reject-power", -1, -1, -1, cand.Watts-cur.Watts)
			m.cycleSucceeded(true)
			return
		}
	}
	m.opts.Events.Emit(now, "lifecycle", "stage", -1, -1, -1, float64(len(m.artifact)))
	m.cycleSucceeded(false) // beginSwap pins the staged plan's set
	m.beginSwap(p)
}

// pairDecision caches the per-pair migrate/keep choice during a swap.
type pairDecision struct {
	migrate bool
	levels  []topo.Path
}

// beginSwap hot-swaps the staged plan into the running controller.
// Only flows whose installed levels actually change are touched, so
// swap cost — time and allocations — is proportional to the migrated
// set, not the flow universe.
func (m *Manager) beginSwap(p *response.Plan) {
	m.state = StateSwapping
	m.met.Swaps++
	m.swapStartAt = m.s.Now()
	if rt := m.opts.Metrics; rt != nil {
		rt.Swaps.Inc()
	}
	m.opts.Events.Emit(m.s.Now(), "lifecycle", "swap", -1, -1, -1, 0)
	m.s.SetPinnedOn(p.AlwaysOnSet())
	decisions := make(map[[2]topo.NodeID]pairDecision)
	migrated := 0
	ropts := te.RetargetOpts{
		DrainGrace: m.opts.DrainGrace,
		OnHandoff:  m.opts.OnSwap,
		OnRetire:   m.flowRetired,
	}
	m.c.EachManaged(func(f *sim.Flow) {
		key := [2]topo.NodeID{f.O, f.D}
		dec, ok := decisions[key]
		if !ok {
			if ps, have := p.PathSet(f.O, f.D); have {
				levels := ps.Levels()
				if !sameLevels(f.Paths, levels) {
					dec = pairDecision{migrate: true, levels: levels}
				}
			} else {
				m.met.KeptPairs++ // rollback rule: no entry, keep old tables
			}
			decisions[key] = dec
		}
		if !dec.migrate {
			return
		}
		nf, err := m.c.Retarget(f, dec.levels, ropts)
		if err != nil || nf == nil {
			// Unroutable under the new plan: rollback rule — this
			// flow keeps its old tables.
			dec.migrate = false
			decisions[key] = dec
			m.met.KeptPairs++
			return
		}
		m.pendingRetire++
		migrated++
	})
	m.met.MigratedFlows += migrated
	m.lastMigrated = migrated
	m.current = p
	m.adoptBaseline()
	if m.pendingRetire == 0 {
		m.swapDone()
	}
}

// flowRetired is the per-flow drain completion callback.
func (m *Manager) flowRetired(old, new *sim.Flow) {
	m.pendingRetire--
	if m.pendingRetire == 0 && m.state == StateSwapping {
		m.swapDone()
		m.publish()
	}
}

func (m *Manager) swapDone() {
	m.state = StateIdle
	m.met.SwapsDone++
	if rt := m.opts.Metrics; rt != nil {
		rt.SwapsDone.Inc()
		rt.MigratedFlows.Add(uint64(m.lastMigrated))
		rt.SwapDurationSec.Add(m.s.Now() - m.swapStartAt)
	}
	m.opts.Events.Emit(m.s.Now(), "lifecycle", "swap-done", -1, -1, -1, float64(m.lastMigrated))
}

// adoptBaseline makes the trigger-time snapshot the planned baseline.
func (m *Manager) adoptBaseline() {
	if m.trigger != nil {
		m.planned = m.trigger
	}
}

// sameLevels reports whether two level lists install identical paths.
func sameLevels(a, b []topo.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
