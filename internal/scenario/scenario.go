// Package scenario is the online runtime's workload catalog: named,
// seed-deterministic large-scale scenarios (diurnal replay, flash
// crowd, correlated failure storm, rolling repair, the Click failover)
// that drive the fluid simulator and the REsPoNseTE controller with up
// to hundreds of thousands of managed flows.
//
// Each scenario returns a Result carrying the controller's action
// counters and behavioral fingerprint, so runs can be compared across
// machines, allocator modes (incremental vs. FullAllocate) and code
// revisions — the online analog of the planner's pinned plan
// fingerprints.
package scenario

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"response"
	"response/internal/core"
	"response/internal/faultinject"
	"response/internal/lifecycle"
	"response/internal/mcf"
	"response/internal/metrics"
	"response/internal/power"
	"response/internal/sim"
	"response/internal/te"
	"response/internal/topo"
	"response/internal/topogen"
	"response/internal/trace"
	"response/internal/traffic"
)

// Config parameterizes a scenario. The zero value plus a name gives a
// small smoke-scale run; presets fill scenario-specific fields.
type Config struct {
	// Seed drives every random choice (endpoint subset, per-flow
	// diurnal phase, flash-crowd membership, storm link selection).
	// Identical Config ⇒ identical Result, including the fingerprint.
	Seed int64
	// Flows is the number of managed flows (default 1000), spread
	// across the planned origin–destination pairs.
	Flows int
	// Duration is the simulated time in seconds (default 6 h).
	Duration float64
	// StepSec is the demand-update interval (default 900 s, the
	// 15-minute granularity of the GÉANT traces).
	StepSec float64
	// PeakUtil scales the aggregate diurnal peak to this fraction of
	// the maximum feasible load (default 0.6: peaks cross the
	// activation threshold on the hot links without drowning the whole
	// network; push it toward 1 for a saturation stress test).
	PeakUtil float64

	// Flash crowd: at FlashAt, the demand of FlashFraction of the
	// flows multiplies by FlashFactor for FlashDuration seconds.
	FlashAt       float64
	FlashDuration float64
	FlashFactor   float64
	FlashFraction float64

	// Failure storm: at StormAt, StormLinks randomly chosen links fail
	// together. When RepairEvery > 0, repairs roll out one link every
	// RepairEvery seconds starting RepairAfter seconds after the storm.
	StormAt     float64
	StormLinks  int
	RepairAfter float64
	RepairEvery float64

	// Correlated failures (the srlgstorm/chaos presets): instead of —
	// or in addition to — StormLinks independent cuts, StormSRLGs
	// randomly chosen shared-risk groups fail whole at StormAt (one
	// fiber cut takes every link in its conduit/pod/PoP). SRLGs is the
	// group model, typically a topogen Instance's derived SRLGs; the
	// GÉANT presets derive geometric conduits when it is empty.
	SRLGs      []topogen.SRLG
	StormSRLGs int
	// CascadeProb > 0 enables cascading failure chains (cascadeDepth
	// below): overload propagates along the chain statistics instead of
	// striking independently. The cascade draws its own rng stream from
	// Seed, so enabling it never perturbs the pinned storm selection.
	CascadeProb float64

	// Faults injects control-plane failures (the chaos preset): the
	// replan path and the artifact staging path run through a
	// faultinject.Injector with these rates. Requires the lifecycle
	// manager (Replan.Deviation > 0) to have a control plane to break.
	Faults faultinject.Config

	// Lifecycle replanning (the replan scenario): when Replan.Deviation
	// is > 0 a lifecycle.Manager monitors per-pair drift against the
	// plan-time matrix and hot-swaps freshly replanned tables into the
	// running controller mid-replay, with the deviation-triggered
	// policy of paper §2/§3. Zero Replan fields take the lifecycle
	// defaults, except MinInterval, which defaults to 2×StepSec.
	Replan        lifecycle.Policy
	ReplanCheck   float64 // monitor cadence (default StepSec)
	ReplanLatency float64 // modeled background compute+deploy (default 60)
	// ObliviousReplan recomputes plans for the plan-time (ε) demand
	// instead of the live matrix, so every successful cycle is a
	// fingerprint-unchanged no-op. The chaos soak uses it to compare a
	// fault-injected run's converged state against a fault-free run at
	// the same seed: with no swaps ever staged, both runs' data planes
	// must end bit-identical.
	ObliviousReplan bool

	// Events, when non-nil, receives the opt-in JSONL event trace of
	// controller decisions, simulator link transitions, lifecycle
	// transitions and chaos injections.
	Events *trace.EventWriter
	// Metrics, when non-nil, receives zero-alloc observability counters
	// from the same subsystems — the /metrics Prometheus feed.
	Metrics *metrics.Runtime

	// FullAllocate runs the simulator's global reference allocator
	// instead of the incremental one (cross-checking).
	FullAllocate bool
	// Power meters energy with the Cisco12000 model (off by default at
	// scale: metering walks every link per settle).
	Power bool
}

func (c *Config) defaults() {
	if c.Flows == 0 {
		c.Flows = 1000
	}
	if c.Duration == 0 {
		c.Duration = 6 * 3600
	}
	if c.StepSec == 0 {
		c.StepSec = 900
	}
	if c.PeakUtil == 0 {
		c.PeakUtil = 0.6
	}
}

const (
	// probePeriod is the controller probe period in seconds — at replay
	// scale, probing at the paper's max-RTT period would dominate the
	// event stream without changing the outcome.
	probePeriod = 60
	// The cascade chain statistics (PAPERS.md "Identify Critical
	// Branches with Cascading Failure Chain Statistics…"): after a
	// storm, cascadeDepth rounds cascadeDelay seconds apart, each
	// rolling Config.CascadeProb for every surviving link at or above
	// cascadeUtil utilization.
	cascadeUtil  = 0.9
	cascadeDepth = 3
	cascadeDelay = 60
)

// validate refuses, after defaults, what would wedge the replay instead
// of running it: a negative step (Advance books a demand step every
// StepSec and would never reach the end of its window) and a replan
// policy the lifecycle manager cannot run.
func (c *Config) validate() error {
	switch {
	case !(c.StepSec > 0):
		return fmt.Errorf("scenario: step must be > 0 s, got %g", c.StepSec)
	case !(c.Duration > 0):
		return fmt.Errorf("scenario: duration must be > 0 s, got %g", c.Duration)
	case c.Replan.Deviation != 0:
		return c.ReplanOpts().Validate()
	}
	return nil
}

// ReplanOpts resolves the lifecycle settings the replay runs c with:
// c.Replan, ReplanCheck and ReplanLatency over the step-derived
// defaults (monitor every step, two steps between replans) over the
// lifecycle defaults.
func (c Config) ReplanOpts() lifecycle.Opts {
	c.defaults()
	opts := lifecycle.Opts{
		Policy:        c.Replan,
		CheckEvery:    c.ReplanCheck,
		ReplanLatency: c.ReplanLatency,
		Seed:          c.Seed,
		Events:        c.Events,
		Metrics:       c.Metrics,
	}
	if opts.CheckEvery == 0 {
		opts.CheckEvery = c.StepSec
	}
	if opts.MinInterval == 0 {
		opts.MinInterval = 2 * c.StepSec
	}
	return opts.WithDefaults()
}

// Result summarizes a scenario run.
type Result struct {
	Name         string
	Flows        int
	SimulatedSec float64

	// Controller action counters and behavioral fingerprint.
	Decisions   int
	Shifts      int
	Wakes       int
	Fingerprint uint64

	// MaxUtil is the worst arc utilization observed at any demand step.
	MaxUtil float64

	// Lifecycle counters (the replan scenario): completed replan
	// computations, fully drained hot swaps, and flows migrated.
	Replans       int
	Swaps         int
	MigratedFlows int
	// Robustness counters (the srlgstorm/chaos presets): failed replan
	// cycles, backoff retries, Degraded fallback transitions and dwell
	// time, injected control-plane faults, and links lost to cascade
	// rounds (Failed includes them). FinalState is the lifecycle
	// manager's state when the run ended ("" without a manager).
	ReplanFailed    int
	Retries         int
	DegradedEntered int
	DegradedExited  int
	DegradedSec     float64
	InjectedFaults  int
	Cascaded        int
	FinalState      string
	// DeliveredBytes / OfferedBytes measure how much of the offered
	// load the runtime carried.
	DeliveredBytes float64
	OfferedBytes   float64
	// AvgPowerPct is the mean metered power (0 without Config.Power).
	AvgPowerPct float64

	Failed   int
	Repaired int
}

// DeliveredFrac is delivered/offered (1 when nothing was offered).
func (r Result) DeliveredFrac() float64 {
	if r.OfferedBytes <= 0 {
		return 1
	}
	return r.DeliveredBytes / r.OfferedBytes
}

// Healthy reports whether the control loop ended in a steady state:
// the lifecycle manager (when one ran) finished outside the Degraded
// fallback. CLI runs use it as their exit condition.
func (r Result) Healthy() bool {
	return r.FinalState != lifecycle.StateDegraded.String()
}

// Print writes the result as a small table.
func (r Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Scenario %s — %d flows over %.0f s simulated\n", r.Name, r.Flows, r.SimulatedSec)
	fmt.Fprintf(w, "  decisions %d, shifts %d, wakes %d\n", r.Decisions, r.Shifts, r.Wakes)
	fmt.Fprintf(w, "  delivered %.1f%% of offered load, max arc util %.2f\n",
		100*r.DeliveredFrac(), r.MaxUtil)
	if r.Failed > 0 || r.Repaired > 0 {
		fmt.Fprintf(w, "  links failed %d (%d by cascade), repaired %d\n",
			r.Failed, r.Cascaded, r.Repaired)
	}
	if r.Replans > 0 || r.Swaps > 0 {
		fmt.Fprintf(w, "  replans %d, hot swaps %d, flows migrated %d\n",
			r.Replans, r.Swaps, r.MigratedFlows)
	}
	if r.InjectedFaults > 0 || r.ReplanFailed > 0 || r.DegradedEntered > 0 {
		fmt.Fprintf(w, "  injected faults %d, failed cycles %d, retries %d\n",
			r.InjectedFaults, r.ReplanFailed, r.Retries)
		fmt.Fprintf(w, "  degraded entered %d, exited %d (%.0f s pinned all-on), final state %s\n",
			r.DegradedEntered, r.DegradedExited, r.DegradedSec, r.FinalState)
	}
	if r.AvgPowerPct > 0 {
		fmt.Fprintf(w, "  mean power %.1f%% of all-on\n", r.AvgPowerPct)
	}
	fmt.Fprintf(w, "  fingerprint %016x\n", r.Fingerprint)
}

// Names lists the runnable scenario presets.
func Names() []string {
	return []string{"diurnal", "flash", "storm", "repair", "click", "replan", "srlgstorm", "chaos"}
}

// geantConduitKm is the proximity radius the GÉANT presets derive
// their SRLG model with: at continental scale, links whose midpoints
// run within 300 km share a corridor.
const geantConduitKm = 300

// stormDefaults fills the correlated-failure preset fields.
func stormDefaults(cfg *Config) {
	if cfg.StormSRLGs == 0 {
		cfg.StormSRLGs = 2
	}
	if cfg.StormAt == 0 {
		cfg.StormAt = cfg.Duration / 3
	}
	if cfg.CascadeProb == 0 {
		cfg.CascadeProb = 0.5
	}
	if cfg.RepairEvery == 0 {
		cfg.RepairEvery = cfg.StepSec / 2
	}
	if cfg.RepairAfter == 0 {
		cfg.RepairAfter = cfg.StepSec
	}
}

// Run executes a named scenario preset.
func Run(name string, cfg Config) (Result, error) {
	cfg.defaults()
	needSRLGs := false
	switch name {
	case "diurnal":
	case "flash":
		if cfg.FlashFactor == 0 {
			cfg.FlashFactor = 3
		}
		if cfg.FlashFraction == 0 {
			cfg.FlashFraction = 0.1
		}
		if cfg.FlashAt == 0 {
			cfg.FlashAt = cfg.Duration / 3
		}
		if cfg.FlashDuration == 0 {
			cfg.FlashDuration = cfg.Duration / 6
		}
	case "storm":
		if cfg.StormLinks == 0 {
			cfg.StormLinks = 5
		}
		if cfg.StormAt == 0 {
			cfg.StormAt = cfg.Duration / 3
		}
	case "repair":
		if cfg.StormLinks == 0 {
			cfg.StormLinks = 5
		}
		if cfg.StormAt == 0 {
			cfg.StormAt = cfg.Duration / 3
		}
		if cfg.RepairEvery == 0 {
			cfg.RepairEvery = cfg.StepSec / 2
		}
		if cfg.RepairAfter == 0 {
			cfg.RepairAfter = cfg.StepSec
		}
	case "click":
		return ClickFailover(cfg)
	case "replan":
		// Diurnal drift past the deviation threshold, background
		// replan, table hot-swap mid-replay.
		if cfg.Replan.Deviation == 0 {
			cfg.Replan.Deviation = 0.2
		}
	case "srlgstorm":
		// Correlated cut: whole shared-risk groups fail together, then
		// overloaded survivors cascade.
		needSRLGs = true
		stormDefaults(&cfg)
	case "chaos":
		// srlgstorm plus a fault-injected control plane: the lifecycle
		// manager replans through the injector while the network burns.
		needSRLGs = true
		stormDefaults(&cfg)
		if cfg.Replan.Deviation == 0 {
			cfg.Replan.Deviation = 0.2
		}
		if cfg.Replan.ReplanDeadline == 0 {
			cfg.Replan.ReplanDeadline = cfg.StepSec
		}
		if !cfg.Faults.Any() {
			cfg.Faults = faultinject.Config{
				FailFirst: 3, ErrorRate: 0.25, PanicRate: 0.05,
				SlowRate: 0.1, CorruptRate: 0.1, TruncateRate: 0.05,
			}
		}
	default:
		return Result{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	g := topo.NewGeant()
	if needSRLGs && len(cfg.SRLGs) == 0 {
		cfg.SRLGs = topogen.ProximitySRLGs(g, geantConduitKm)
	}
	r, err := NewDiurnal(g, nil, cfg)
	if err != nil {
		return Result{}, err
	}
	r.Advance(cfg.Duration)
	res := r.Finish()
	res.Name = name
	return res, nil
}

// Replay is a running scenario: a planned topology, a populated
// simulator/controller pair and the demand program driving them.
// Benchmarks Advance it window by window; Run drives it end to end.
type Replay struct {
	Topo *topo.Topology
	Sim  *sim.Simulator
	Ctrl *te.Controller
	// Mgr is the plan lifecycle manager (nil unless the replan
	// scenario enabled it with Config.Replan.Deviation > 0).
	Mgr *lifecycle.Manager

	cfg   Config
	flows []*sim.Flow
	base  []float64 // per-flow peak demand
	phase []float64 // per-flow diurnal phase jitter
	flash []bool    // flash-crowd membership

	// idx maps a live flow ID to its slot in flows, so lifecycle
	// hot-swaps can re-point the slot to the replacement flow (only
	// populated when the lifecycle manager is attached).
	idx          map[int]int
	retiredBytes float64 // delivered bytes of flows retired by swaps

	stormOrder []topo.LinkID
	stormDone  bool

	// Correlated-failure state: the SRLG groups the storm cuts, the
	// cascade's private rng stream, and the set of currently cut links
	// (cascade rounds and rolling repairs share it).
	stormGroups []topogen.SRLG
	cascadeRng  *rand.Rand
	cut         map[topo.LinkID]bool
	cascaded    int

	// inj is the control-plane fault injector (nil unless Config.Faults
	// set any rate).
	inj *faultinject.Injector

	offered     float64
	offeredRate float64 // current aggregate demand, for offered integration
	lastCharge  float64
	maxUtil     float64
	failed      int
	repaired    int
	start       float64
	nextStep    float64
}

// NewGeantDiurnal plans the GÉANT topology and installs cfg.Flows
// managed flows over the planned path levels, each with a
// phase-jittered diurnal demand. Nothing runs until Advance.
func NewGeantDiurnal(cfg Config) (*Replay, error) {
	return NewDiurnal(topo.NewGeant(), nil, cfg)
}

// NewDiurnal is NewGeantDiurnal over an arbitrary topology — built-in
// or generated (response/topogen) — so every scenario in the catalog
// can drive networks beyond the paper's three. endpoints nil selects
// the deterministic random 70 % of the topology's natural endpoints
// (the paper's §5.1 procedure); an explicit list is used as given.
func NewDiurnal(g *topo.Topology, endpoints []topo.NodeID, cfg Config) (*Replay, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	if endpoints == nil {
		// Endpoint subset (§5.1): deterministic random 70% of the PoPs.
		all := core.DefaultEndpoints(g)
		n := int(float64(len(all))*0.7 + 0.5)
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		endpoints = append([]topo.NodeID(nil), all[:n]...)
		sort.Slice(endpoints, func(i, j int) bool { return endpoints[i] < endpoints[j] })
	}

	model := power.Cisco12000{}
	base := traffic.Gravity(g, traffic.GravityOpts{Nodes: endpoints, TotalRate: 1})
	maxScale := mcf.MaxFeasibleScale(g, base, mcf.RouteOpts{}, 0.05)
	peak := base.Scale(maxScale * cfg.PeakUtil)
	// Plan through the public facade (identical tables to core.Plan)
	// so the lifecycle manager can stage replacements as versioned
	// plan artifacts.
	planner := response.NewPlanner(response.WithEndpoints(endpoints))
	plan, err := planner.Plan(context.Background(), g)
	if err != nil {
		return nil, fmt.Errorf("scenario: plan: %w", err)
	}
	tables := plan.Tables()

	simOpts := sim.Opts{
		WakeUpDelay:    5, // §5.3's upper bound for existing ISP hardware
		SleepAfterIdle: 60,
		PinnedOn:       tables.AlwaysOnSet,
		FullAllocate:   cfg.FullAllocate,
		Events:         cfg.Events,
		Metrics:        cfg.Metrics,
	}
	if cfg.Power {
		simOpts.Model = model
	}
	s := sim.New(g, simOpts)
	ctrl := te.NewController(s, te.Opts{Threshold: 0.9, Gamma: 0.5, Period: probePeriod, Events: cfg.Events, Metrics: cfg.Metrics})

	r := &Replay{Topo: g, Sim: s, Ctrl: ctrl, cfg: cfg}
	demands := peak.Demands()
	type pair struct {
		o, d  topo.NodeID
		rate  float64
		paths []topo.Path
	}
	var pairs []pair
	for _, d := range demands {
		ps, ok := tables.PathSetFor(d.O, d.D)
		if !ok {
			continue
		}
		pairs = append(pairs, pair{d.O, d.D, d.Rate, ps.Levels()})
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("scenario: no routable pairs")
	}
	perPair := cfg.Flows / len(pairs)
	extra := cfg.Flows % len(pairs)
	for i, p := range pairs {
		k := perPair
		if i < extra {
			k++
		}
		if k == 0 {
			continue
		}
		each := p.rate / float64(k)
		for j := 0; j < k; j++ {
			f, err := s.AddFlow(p.o, p.d, 0, p.paths)
			if err != nil {
				return nil, fmt.Errorf("scenario: flow %d->%d: %w", p.o, p.d, err)
			}
			ctrl.Manage(f)
			r.flows = append(r.flows, f)
			r.base = append(r.base, each)
			r.phase = append(r.phase, rng.Float64()*2*math.Pi)
			r.flash = append(r.flash, rng.Float64() < cfg.FlashFraction)
		}
	}
	// Storm link order, chosen up front so repair order is pinned too.
	if cfg.StormLinks > 0 {
		perm := rng.Perm(g.NumLinks())
		for _, li := range perm[:min(cfg.StormLinks, g.NumLinks())] {
			r.stormOrder = append(r.stormOrder, topo.LinkID(li))
		}
	}
	// SRLG storm selection: whole groups, drawn after (and therefore
	// never perturbing) the independent-cut order above. The cascade
	// rolls its own rng stream so enabling chains cannot shift either
	// selection.
	if cfg.StormSRLGs > 0 && len(cfg.SRLGs) > 0 {
		perm := rng.Perm(len(cfg.SRLGs))
		for _, gi := range perm[:min(cfg.StormSRLGs, len(cfg.SRLGs))] {
			r.stormGroups = append(r.stormGroups, cfg.SRLGs[gi])
		}
	}
	if cfg.CascadeProb > 0 {
		r.cascadeRng = rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1ab1e))
	}
	r.applyDemands(0)
	ctrl.Start()
	if cfg.Replan.Deviation > 0 {
		r.idx = make(map[int]int, len(r.flows))
		for i, f := range r.flows {
			r.idx[f.ID] = i
		}
		// Replans are demand-aware: the live matrix replaces the
		// ε-demand as d_low, so drifted traffic reshapes the always-on
		// assignment and a genuinely different plan can stage.
		replan := func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
			opts := []response.Option{response.WithLowMatrix(live)}
			if prev, ok := lifecycle.WarmHint(ctx); ok {
				opts = append(opts, response.WithWarmStart(prev))
			}
			return planner.Plan(ctx, g, opts...)
		}
		if cfg.ObliviousReplan {
			// Demand-oblivious: recompute for the plan-time demand, so
			// every successful cycle fingerprint-matches the installed
			// plan (an Unchanged no-op, never a swap). Deliberately cold:
			// a warm-started plan is only power-equal outside the slack
			// regime, which would turn the guaranteed no-op into a swap.
			replan = func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
				return planner.Plan(ctx, g)
			}
		}
		opts := cfg.ReplanOpts()
		opts.Model = model
		opts.OnSwap = r.flowSwapped
		if cfg.Faults.Any() {
			fc := cfg.Faults
			if fc.Seed == 0 {
				fc.Seed = cfg.Seed + 1
			}
			r.inj = faultinject.New(fc)
			replan = r.inj.WrapReplan(replan)
			opts.ArtifactFilter = r.inj.ArtifactFilter()
		}
		r.Mgr = lifecycle.New(s, ctrl, plan, replan, opts)
		r.Mgr.Start()
	}
	return r, nil
}

// flowSwapped re-points a replay slot from a retired flow to its
// hot-swap replacement at the demand handoff, folding the retired
// flow's delivered bytes into the scenario totals.
func (r *Replay) flowSwapped(old, nf *sim.Flow) {
	i, ok := r.idx[old.ID]
	if !ok {
		return
	}
	r.retiredBytes += r.Sim.Bytes(old)
	delete(r.idx, old.ID)
	r.idx[nf.ID] = i
	r.flows[i] = nf
}

// StormLinks returns the seeded storm link selection (empty unless
// Config.StormLinks > 0); benchmarks use it to drive manual storms.
func (r *Replay) StormLinks() []topo.LinkID { return r.stormOrder }

// Flows returns the number of managed flows installed in the replay.
func (r *Replay) Flows() int { return len(r.flows) }

// InjectedFaults returns the control-plane faults injected so far (0
// without a fault injector). Unlike Finish it does not close the
// books, so a long-running driver — the controld status endpoint —
// can report it mid-replay.
func (r *Replay) InjectedFaults() int {
	if r.inj == nil {
		return 0
	}
	return r.inj.Counts().Faults()
}

// observeUtil folds the current settled worst arc utilization into
// the running maximum.
func (r *Replay) observeUtil() {
	if u := r.Sim.MaxArcUtil(); u > r.maxUtil {
		r.maxUtil = u
	}
}

// demandAt evaluates flow i's offered rate at simulated time t.
func (r *Replay) demandAt(i int, t float64) float64 {
	// Diurnal: trough at 55%−45%, peak at 55%+45% of the flow's base,
	// phase-jittered per flow so steps are not lockstep.
	d := r.base[i] * (0.55 + 0.45*math.Sin(2*math.Pi*t/86400+r.phase[i]))
	if r.flash[i] && t >= r.cfg.FlashAt && t < r.cfg.FlashAt+r.cfg.FlashDuration &&
		r.cfg.FlashFactor > 0 {
		d *= r.cfg.FlashFactor
	}
	return d
}

// applyDemands sets every flow's demand for the step at time t,
// charging the offered-load integral for the interval just ended.
func (r *Replay) applyDemands(t float64) {
	r.offered += r.offeredRate * (t - r.lastCharge) / 8
	r.lastCharge = t
	var total float64
	for i, f := range r.flows {
		d := r.demandAt(i, t)
		r.Sim.SetDemand(f, d)
		total += d
	}
	r.offeredRate = total
}

// Advance runs the scenario for the given additional simulated time,
// scheduling the demand steps and any storm/flash/repair events that
// fall inside the window. Diurnal demand is periodic, so a Replay can
// be advanced indefinitely (benchmarks replay extra days).
func (r *Replay) Advance(seconds float64) {
	end := r.start + seconds
	if r.nextStep == 0 {
		r.nextStep = r.cfg.StepSec
	}
	for ; r.nextStep <= end; r.nextStep += r.cfg.StepSec {
		at := r.nextStep
		r.Sim.Schedule(at, func() {
			// Rates for the interval just ended are settled; observe
			// them before the new demands dirty the allocation.
			r.observeUtil()
			r.applyDemands(at)
		})
	}
	if !r.stormDone && (len(r.stormOrder) > 0 || len(r.stormGroups) > 0) &&
		r.cfg.StormAt > 0 && r.cfg.StormAt >= r.start && r.cfg.StormAt < end {
		r.stormDone = true
		// Flatten the cut list: independent links first (their pinned
		// order predates SRLGs), then whole shared-risk groups.
		cutList := append([]topo.LinkID(nil), r.stormOrder...)
		for _, sg := range r.stormGroups {
			cutList = append(cutList, sg.Links...)
		}
		r.Sim.Schedule(r.cfg.StormAt, func() {
			for _, sg := range r.stormGroups {
				r.cfg.Events.Emit(r.Sim.Now(), "chaos", "srlg-cut", -1, -1, -1, float64(len(sg.Links)))
			}
			for _, l := range cutList {
				r.failLink(l)
			}
			r.scheduleCascades()
		})
		if r.cfg.RepairEvery > 0 {
			for k, l := range cutList {
				at := r.cfg.StormAt + r.cfg.RepairAfter + float64(k)*r.cfg.RepairEvery
				lk := l
				r.Sim.Schedule(at, func() { r.repairLink(lk) })
			}
		}
	}
	r.Sim.Run(end)
	r.start = end
}

// failLink cuts a link once (storm lists and SRLG groups may overlap),
// tracking it for repair bookkeeping.
func (r *Replay) failLink(l topo.LinkID) {
	if r.cut == nil {
		r.cut = make(map[topo.LinkID]bool)
	}
	if r.cut[l] {
		return
	}
	r.cut[l] = true
	r.Sim.FailLink(l)
	r.failed++
}

// repairLink returns a previously cut link to service.
func (r *Replay) repairLink(l topo.LinkID) {
	if !r.cut[l] {
		return
	}
	delete(r.cut, l)
	r.Sim.RepairLink(l)
	r.repaired++
}

// scheduleCascades books the post-storm cascade rounds: cascadeDepth
// rounds, cascadeDelay apart, each failing currently overloaded
// survivors with probability CascadeProb from the cascade's own rng
// stream. Rounds are scheduled from storm time, so the chain timing is
// part of the deterministic replay.
func (r *Replay) scheduleCascades() {
	if r.cascadeRng == nil {
		return
	}
	now := r.Sim.Now()
	for k := 1; k <= cascadeDepth; k++ {
		r.Sim.Schedule(now+float64(k)*cascadeDelay, func() { r.cascadeRound() })
	}
}

// cascadeRound is one step of the chain: every overloaded survivor
// rolls the chain probability; casualties fail now and join the
// rolling-repair schedule.
func (r *Replay) cascadeRound() {
	cands := r.Sim.OverloadedLinks(cascadeUtil)
	idx := 0
	for _, l := range cands {
		if r.cut[l] || r.cascadeRng.Float64() >= r.cfg.CascadeProb {
			continue
		}
		r.failLink(l)
		r.cascaded++
		r.cfg.Events.EmitLink(r.Sim.Now(), "chaos", "cascade", int(l), r.cfg.CascadeProb)
		if r.cfg.RepairEvery > 0 {
			at := r.Sim.Now() + r.cfg.RepairAfter + float64(idx)*r.cfg.RepairEvery
			lk := l
			r.Sim.Schedule(at, func() { r.repairLink(lk) })
		}
		idx++
	}
}

// Starving returns the number of flows currently offered demand but
// achieving zero rate — traffic the network is failing entirely. The
// chaos soak bounds it: outside the storm-to-repair disruption window
// it must be zero (the always-correct fallback guarantee).
func (r *Replay) Starving() int {
	n := 0
	for _, f := range r.flows {
		if f.Demand > 0 && f.Rate() == 0 {
			n++
		}
	}
	return n
}

// Finish closes the books and returns the Result.
func (r *Replay) Finish() Result {
	r.offered += r.offeredRate * (r.start - r.lastCharge) / 8
	r.lastCharge = r.start
	r.observeUtil() // the final interval has no closing step event
	delivered := r.retiredBytes
	for _, f := range r.flows {
		delivered += r.Sim.Bytes(f)
	}
	res := Result{
		Name:           "diurnal",
		Flows:          len(r.flows),
		SimulatedSec:   r.start,
		Decisions:      r.Ctrl.Decisions,
		Shifts:         r.Ctrl.Shifts,
		Wakes:          r.Ctrl.Wakes,
		Fingerprint:    r.Ctrl.Fingerprint(),
		MaxUtil:        r.maxUtil,
		DeliveredBytes: delivered,
		OfferedBytes:   r.offered,
		Failed:         r.failed,
		Repaired:       r.repaired,
	}
	res.Cascaded = r.cascaded
	if r.Mgr != nil {
		lm := r.Mgr.Metrics()
		res.Replans = lm.Replans
		res.Swaps = lm.SwapsDone
		res.MigratedFlows = lm.MigratedFlows
		res.ReplanFailed = lm.ReplanFailed
		res.Retries = lm.Retries
		res.DegradedEntered = lm.DegradedEntered
		res.DegradedExited = lm.DegradedExited
		res.DegradedSec = lm.DegradedSec
		res.FinalState = r.Mgr.State().String()
	}
	if r.inj != nil {
		res.InjectedFaults = r.inj.Counts().Faults()
	}
	if m := r.Sim.Meter(); m != nil && r.start > 0 {
		joules := m.Finish(r.start)
		res.AvgPowerPct = 100 * joules / (m.FullWatts() * r.start)
	}
	return res
}

// ClickFailover is the §5.3 Click-testbed experiment as a scenario:
// two flows on the Figure 3 topology, TE starting at t=5 s, the shared
// middle link failing at t=5.7 s, run to t=8 s. Its scale, timing and
// seedless determinism are pinned — it is the behavioral anchor whose
// fingerprint tests pin — so of cfg only FullAllocate (allocator
// cross-check mode) is honored.
func ClickFailover(cfg Config) (Result, error) {
	ex := topo.NewExample(topo.ExampleOpts{})
	pinned := topo.AllOff(ex.Topology)
	pinned.ActivatePath(ex.Topology, ex.MiddlePath(ex.A))
	pinned.ActivatePath(ex.Topology, ex.MiddlePath(ex.C))
	s := sim.New(ex.Topology, sim.Opts{
		WakeUpDelay:      0.010,
		SleepAfterIdle:   0.050,
		FailureDetect:    0.050,
		FailurePropagate: 0.050,
		Model:            power.Cisco12000{},
		PinnedOn:         pinned,
		FullAllocate:     cfg.FullAllocate,
	})
	ctrl := te.NewController(s, te.Opts{Threshold: 0.9, Gamma: 0.5})
	fa, err := s.AddFlow(ex.A, ex.K, 2.5*topo.Mbps,
		[]topo.Path{ex.MiddlePath(ex.A), ex.UpperPath()})
	if err != nil {
		return Result{}, err
	}
	fc, err := s.AddFlow(ex.C, ex.K, 2.5*topo.Mbps,
		[]topo.Path{ex.MiddlePath(ex.C), ex.LowerPath()})
	if err != nil {
		return Result{}, err
	}
	s.SetShare(fa, []float64{0.5, 0.5})
	s.SetShare(fc, []float64{0.5, 0.5})
	ctrl.Manage(fa)
	ctrl.Manage(fc)
	s.Schedule(5, func() { ctrl.Start() })
	eh, _ := ex.ArcBetween(ex.E, ex.H)
	s.Schedule(5.7, func() { s.FailLink(ex.Arc(eh).Link) })
	s.Run(8)
	offered := 2 * 2.5e6 / 8 * 8 // two flows, full horizon
	return Result{
		Name:           "click",
		Flows:          2,
		SimulatedSec:   8,
		Decisions:      ctrl.Decisions,
		Shifts:         ctrl.Shifts,
		Wakes:          ctrl.Wakes,
		Fingerprint:    ctrl.Fingerprint(),
		MaxUtil:        s.MaxArcUtil(),
		DeliveredBytes: s.Bytes(fa) + s.Bytes(fc),
		OfferedBytes:   offered,
		Failed:         1,
	}, nil
}
