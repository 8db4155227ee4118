package response

import (
	"context"
	"fmt"
	"io"

	"response/internal/core"
	"response/internal/mcf"
	"response/internal/power"
	"response/internal/spf"
)

// An Option configures a Planner (or a single Plan call). The zero
// configuration plans N=3 paths per pair in ModeStress with the
// Cisco12000 power model — the paper's ISP defaults.
type Option func(*config)

type config struct {
	core       core.PlanOpts
	warm       *Plan
	warmStrict bool
	pathEngine string
	engineSet  bool
}

// Path engine names accepted by WithPathEngine. The engine serves the
// plan's K-shortest and failover searches only.
const (
	// PathEngineReference is the default engine: the exact Dijkstra /
	// Yen implementation whose outputs the plan fingerprints pin.
	PathEngineReference = "reference"
	// PathEngineALT is certified A* over landmark lower bounds: every
	// query either provably reproduces the reference answer or is
	// transparently re-run through the reference engine, so plans are
	// bit-identical — only faster, on goal-friendly topologies, in the
	// K-shortest and failover searches the engine serves.
	PathEngineALT = "alt"
	// PathEngineBidirectional is certified bidirectional Dijkstra,
	// with the same exact-or-fallback contract as PathEngineALT.
	PathEngineBidirectional = "bidirectional"
)

// WithPathEngine selects the shortest-path solver used by the plan's
// K-shortest searches (the latency-bound repair, ModeHeuristic's
// candidate paths) and failover searches: PathEngineReference (the
// default), PathEngineALT or PathEngineBidirectional. It does not apply
// to the feasibility router's load-aware queries — the bulk of a
// plan's time — which always run the compiled kernel, so a whole plan
// takes about the same time under every engine. The goal-directed
// engines are certified-exact — a query they cannot prove bit-identical
// to the reference engine's falls back to it — so the engine choice
// never changes a plan, only how fast those searches are computed. An
// unknown name is reported as an error when Plan runs.
func WithPathEngine(name string) Option {
	return func(c *config) { c.pathEngine, c.engineSet = name, true }
}

// WithPaths sets N, the number of energy-critical paths installed per
// origin-destination pair: one always-on, N-2 on-demand, one failover.
// The paper finds N=3 suffices on GÉANT and N=5 on a fat-tree (§3.3).
func WithPaths(n int) Option { return func(c *config) { c.core.N = n } }

// WithMode selects how on-demand paths are computed (default ModeStress).
func WithMode(m Mode) Option { return func(c *config) { c.core.Mode = m } }

// WithStressFactor sets the fraction of top-stressed links excluded per
// on-demand round (default 0.2, the paper's §4.2 sensitivity choice).
// f <= 0 disables exclusion entirely rather than falling back to the
// default.
func WithStressFactor(f float64) Option {
	return func(c *config) {
		if f <= 0 {
			f = -1 // explicit zero: no exclusion (0 would mean "default")
		}
		c.core.StressExclude = f
	}
}

// WithRestarts sets the number of random restarts of the optimal-subset
// search on top of the deterministic orderings (default 4); n <= 0 runs
// only the deterministic orderings. Restarts run concurrently; results
// are independent of GOMAXPROCS.
func WithRestarts(n int) Option {
	return func(c *config) {
		if n <= 0 {
			n = -1 // explicit zero: no random restarts (0 would mean "default")
		}
		c.core.RandomRestarts = n
	}
}

// WithProgress registers a callback invoked at every stage boundary of
// the plan. It runs on the planning goroutine and must return quickly.
func WithProgress(fn func(PlanProgress)) Option {
	return func(c *config) { c.core.Progress = fn }
}

// WithTrace directs human-readable planner tracing to w.
func WithTrace(w io.Writer) Option { return func(c *config) { c.core.Trace = w } }

// WithModel sets the power model pricing network elements (default
// Cisco12000).
func WithModel(m PowerModel) Option { return func(c *config) { c.core.Model = m } }

// WithDelayBound enables the REsPoNse-lat variant: every always-on path
// must satisfy delay ≤ (1+beta) × the OSPF-InvCap path delay (§4.1
// constraint 4; the paper uses beta=0.25).
func WithDelayBound(beta float64) Option { return func(c *config) { c.core.Beta = beta } }

// WithEndpoints restricts the origin-destination universe to the given
// nodes. By default a topology's hosts (when it has any) or all
// non-host nodes exchange traffic.
func WithEndpoints(nodes []NodeID) Option { return func(c *config) { c.core.Nodes = nodes } }

// WithLowMatrix supplies a measured off-peak matrix (d_low) in place of
// the traffic-oblivious ε-demand for the always-on computation.
func WithLowMatrix(m *TrafficMatrix) Option { return func(c *config) { c.core.LowTM = m } }

// WithPeakMatrix supplies the peak-hour matrix (d_peak) required by
// ModeSolver and ModeHeuristic.
func WithPeakMatrix(m *TrafficMatrix) Option { return func(c *config) { c.core.PeakTM = m } }

// WithMaxUtil sets the ISP's link-utilization ceiling (default 1.0).
// The ceiling must be positive; u <= 0 makes Plan fail with a
// configuration error rather than silently selecting the default.
func WithMaxUtil(u float64) Option {
	return func(c *config) {
		if u <= 0 {
			u = -1 // explicit non-positive ceiling: rejected by validation
		}
		c.core.MaxUtil = u
	}
}

// WithSeed seeds the random restarts of the subset search. Plans are
// deterministic for a fixed seed.
func WithSeed(seed int64) Option { return func(c *config) { c.core.Seed = seed } }

// WithWarmStart seeds the plan from a previous plan of the same
// topology: every subset-search stage starts from the corresponding
// stage of prev and re-proves only the delta, skipping the cold
// multi-restart pool when the warm result's power lands within 5% of
// the seed's. With unchanged inputs the warm plan is
// fingerprint-identical to the cold plan in the capacity-slack regime
// and power-equal within that tolerance otherwise; a stage whose seed
// cannot be used falls back to the cold search, so warm-starting never
// changes what is plannable.
//
// A prev computed for a different topology (by fingerprint) is
// silently ignored and the plan runs cold; use WithWarmStartStrict to
// make that an error. A nil prev is a no-op.
func WithWarmStart(prev *Plan) Option {
	return func(c *config) { c.warm, c.warmStrict = prev, false }
}

// WithWarmStartStrict is WithWarmStart, except a prev whose topology
// fingerprint does not match the topology being planned fails the
// plan with ErrWarmStartMismatch instead of silently running cold.
func WithWarmStartStrict(prev *Plan) Option {
	return func(c *config) { c.warm, c.warmStrict = prev, true }
}

// A Planner precomputes REsPoNse energy-critical path tables. The zero
// value is usable; NewPlanner bakes in a base option set that every
// Plan call starts from.
//
// A Planner is stateless between calls and safe for concurrent use as
// long as its options are (a shared WithTrace writer, for example, must
// itself be concurrency-safe).
type Planner struct {
	base []Option
}

// NewPlanner returns a Planner whose Plan calls start from opts.
func NewPlanner(opts ...Option) *Planner { return &Planner{base: opts} }

// Plan precomputes the energy-critical paths of every origin-destination
// pair of t: always-on paths via the min-power solve, N-2 on-demand
// tables via the configured mode, and one maximally disjoint failover
// path per pair. Per-call opts are applied after the Planner's base
// options.
//
// Plan honors ctx: cancellation propagates into the optimal-subset
// restart pool and aborts promptly with an error satisfying
// errors.Is(err, ErrCanceled). Solver failures satisfy ErrInfeasible or
// ErrDelayBound; invalid configurations (a non-positive WithMaxUtil,
// WithPaths below 3, a missing peak matrix) are reported as plain
// errors before planning starts.
//
// The tables are deterministic: the same topology, options and seed
// produce bit-identical plans regardless of GOMAXPROCS.
func (pl *Planner) Plan(ctx context.Context, t *Topology, opts ...Option) (*Plan, error) {
	cfg := config{core: core.PlanOpts{Model: power.Cisco12000{}}}
	for _, o := range pl.base {
		o(&cfg)
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.engineSet {
		eng, err := spf.ParseEngine(cfg.pathEngine)
		if err != nil {
			return nil, fmt.Errorf("response: %w", err)
		}
		cfg.core.PathEngine = eng
	}
	if cfg.warm != nil {
		if fp := cfg.warm.Topology().Fingerprint(); fp != t.Fingerprint() {
			if cfg.warmStrict {
				return nil, fmt.Errorf("response: plan topology %#x vs warm-start %#x: %w",
					t.Fingerprint(), fp, ErrWarmStartMismatch)
			}
			// Lenient warm-start against the wrong topology: plan cold.
		} else {
			cfg.core.Warm = cfg.warm.Tables().WarmStart()
		}
	}
	tables, err := core.PlanContext(ctx, t, cfg.core)
	if err != nil {
		return nil, err
	}
	return &Plan{topo: t, tables: tables}, nil
}

// MaxRoutableScale returns (to ~2 % precision) the largest multiplier s
// such that base scaled by s still routes on the full topology. Use it
// to anchor synthetic traffic at a realistic operating point.
func MaxRoutableScale(t *Topology, base *TrafficMatrix) float64 {
	return mcf.MaxFeasibleScale(t, base, mcf.RouteOpts{}, 0.02)
}
