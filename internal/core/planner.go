package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"response/internal/mcf"
	"response/internal/power"
	"response/internal/spf"
	"response/internal/topo"
	"response/internal/traffic"
)

// Mode selects how on-demand paths are computed (§4.2).
type Mode int

// On-demand computation modes.
const (
	// ModeStress is the demand-oblivious default ("REsPoNse" in the
	// figures): solve the min-power problem while avoiding the
	// top-stressed fraction of links from the always-on assignment.
	ModeStress Mode = iota
	// ModeSolver uses the solver with the peak-hour traffic matrix,
	// carrying the always-on X/Y fixed to 1.
	ModeSolver
	// ModeOSPF substitutes the default OSPF-InvCap routing table for
	// the on-demand paths ("REsPoNse-ospf").
	ModeOSPF
	// ModeHeuristic uses the GreenTE-style k-shortest-path heuristic
	// with the peak matrix ("REsPoNse-heuristic").
	ModeHeuristic
)

// String names the mode as the figures label it.
func (m Mode) String() string {
	switch m {
	case ModeStress:
		return "REsPoNse"
	case ModeSolver:
		return "REsPoNse-solver"
	case ModeOSPF:
		return "REsPoNse-ospf"
	case ModeHeuristic:
		return "REsPoNse-heuristic"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// epsilon is the per-pair demand, in bits/s, of the traffic-oblivious
// always-on computation (§4.1's ε-demand).
const epsilon float64 = 1

// PlanOpts parameterizes the off-line path precomputation.
type PlanOpts struct {
	// N is the number of energy-critical paths per pair (default 3:
	// one always-on, N-2 on-demand, one failover). §3.3: 3 suffice on
	// GÉANT, 5 on a fat-tree.
	N int
	// Mode selects the on-demand computation (default ModeStress).
	Mode Mode
	// Beta, when > 0, enables the REsPoNse-lat delay bound (§4.1,
	// constraint 4): every always-on path's propagation delay must be
	// ≤ (1+Beta) × the OSPF-InvCap path delay. The paper uses 0.25.
	Beta float64
	// StressExclude is the fraction of top-stressed links excluded
	// when computing on-demand paths (default 0.2, §4.2). Zero selects
	// the default; a negative value disables exclusion entirely.
	StressExclude float64
	// LowTM, when non-nil, replaces the ε-demand with a measured
	// off-peak matrix (d_low).
	LowTM *traffic.Matrix
	// PeakTM supplies d_peak for ModeSolver/ModeHeuristic.
	PeakTM *traffic.Matrix
	// Model prices elements (required).
	Model power.Model
	// MaxUtil is the ISP's utilization ceiling, which must be positive
	// (default 1.0).
	MaxUtil float64
	// Nodes is the OD universe (default: hosts if the topology has
	// any, otherwise all non-host nodes).
	Nodes []topo.NodeID
	// RandomRestarts for the optimal-subset search (default 4; a
	// negative value disables random restarts, leaving only the
	// deterministic orderings).
	RandomRestarts int
	Seed           int64
	// Warm, when non-nil, seeds each subset-search stage from the
	// corresponding stage of a previous plan (see WarmStart); stages
	// whose seed misses its tolerance fall back to the cold search, so
	// warm planning never changes feasibility, only speed.
	Warm *WarmStart
	// PathEngine selects the point-to-point shortest-path solver for
	// the plan's K-shortest searches (latency-bound repair, heuristic
	// on-demand mode) and failover searches (default: the reference
	// Dijkstra).
	// The feasibility router's load-aware queries do not dispatch on
	// it: they all run the compiled kernel (spf.ShortestPathLoad).
	// The goal-directed engines are certified-exact — they fall back to
	// the reference engine on any query whose answer they cannot prove
	// identical — so the resulting plan is bit-for-bit the same under
	// every choice; only planning speed changes.
	PathEngine spf.Engine
	// Trace, when non-nil, receives human-readable planner tracing
	// (per-round exclusion and sizing decisions).
	Trace io.Writer
	// Progress, when non-nil, is invoked at every stage boundary of the
	// plan. It runs on the planning goroutine and must return quickly.
	Progress func(PlanProgress)
}

// PlanProgress reports planning advancement to a PlanOpts.Progress
// callback: the stage just completed and the overall step count.
type PlanProgress struct {
	// Stage names the completed stage: "always-on", "on-demand",
	// "failover" or "done".
	Stage string
	// Round is the on-demand round just finished (0-based); -1 for the
	// other stages.
	Round int
	// Step and Total count completed stages out of the plan's total.
	Step, Total int
}

func (o *PlanOpts) defaults(t *topo.Topology) error {
	if o.Model == nil {
		return errors.New("core: PlanOpts.Model is required")
	}
	if o.N == 0 {
		o.N = 3
	}
	if o.N < 3 {
		return fmt.Errorf("core: N must be >= 3 (always-on + on-demand + failover), got %d", o.N)
	}
	if o.StressExclude == 0 {
		o.StressExclude = 0.2
	}
	if o.MaxUtil < 0 {
		return fmt.Errorf("core: MaxUtil must be positive, got %g", o.MaxUtil)
	}
	if o.MaxUtil == 0 {
		o.MaxUtil = 1.0
	}
	if o.Nodes == nil {
		o.Nodes = DefaultEndpoints(t)
	}
	if o.Mode < ModeStress || o.Mode > ModeHeuristic {
		return fmt.Errorf("core: unknown mode %v", o.Mode)
	}
	if (o.Mode == ModeSolver || o.Mode == ModeHeuristic) && o.PeakTM == nil {
		return fmt.Errorf("core: mode %v requires PeakTM", o.Mode)
	}
	return nil
}

// DefaultEndpoints returns the natural demand endpoints of a topology:
// its hosts when it has any (datacenters), else every non-host node.
func DefaultEndpoints(t *topo.Topology) []topo.NodeID {
	var hosts, routers []topo.NodeID
	for _, n := range t.Nodes() {
		if n.Kind == topo.KindHost {
			hosts = append(hosts, n.ID)
		} else {
			routers = append(routers, n.ID)
		}
	}
	if len(hosts) > 0 {
		return hosts
	}
	return routers
}

// Plan precomputes the REsPoNse tables for a topology: always-on paths
// via the min-power solve, N-2 on-demand tables via the selected mode,
// and one failover path per pair (§4.1–4.3).
func Plan(t *topo.Topology, opts PlanOpts) (*Tables, error) {
	return PlanContext(context.Background(), t, opts)
}

// wrapPlanErr classifies err under the package sentinels so public
// callers can dispatch with errors.Is: context cancellation maps to
// ErrCanceled, delay-bound violations keep ErrDelayBound, and anything
// else that stopped the solve is a routing infeasibility.
func wrapPlanErr(prefix string, err error) error {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, ErrCanceled):
		return fmt.Errorf("%s: %w", prefix, ErrCanceled)
	case errors.Is(err, ErrDelayBound), errors.Is(err, ErrInfeasible):
		return fmt.Errorf("%s: %w", prefix, err)
	default:
		return fmt.Errorf("%s: %w: %v", prefix, ErrInfeasible, err)
	}
}

// emit delivers one progress event if the caller asked for them.
func (o *PlanOpts) emit(stage string, round, step, total int) {
	if o.Progress != nil {
		o.Progress(PlanProgress{Stage: stage, Round: round, Step: step, Total: total})
	}
}

// PlanContext is Plan with cancellation: ctx is threaded through every
// optimal-subset search, including the parallel restart pool, and a
// canceled context aborts planning promptly with an error satisfying
// errors.Is(err, ErrCanceled).
func PlanContext(ctx context.Context, t *topo.Topology, opts PlanOpts) (*Tables, error) {
	if err := opts.defaults(t); err != nil {
		return nil, err
	}
	rounds := opts.N - 2
	total := rounds + 3 // always-on + rounds + failover + done
	lowTM := opts.LowTM
	if lowTM == nil {
		lowTM = traffic.Uniform(opts.Nodes, epsilon)
	}
	lowDemands := lowTM.Demands()

	// ---- Always-on paths (§4.1): minimum-power full-connectivity. ----
	// For REsPoNse-lat, constraint (4) — delay(O,D) ≤ (1+β)·delayOSPF —
	// is enforced inside the subset search: a switch-off whose rerouting
	// would stretch any pair past its bound is rejected, exactly as the
	// MILP constraint would forbid it.
	var check func(*mcf.Routing) error
	var bounds map[[2]topo.NodeID]float64
	if opts.Beta > 0 {
		var err error
		bounds, err = delayBounds(t, opts.Nodes, opts.Beta)
		if err != nil {
			return nil, err
		}
		check = func(r *mcf.Routing) error {
			for k, bound := range bounds {
				p, ok := r.Paths[k]
				if !ok {
					continue
				}
				if p.Latency(t) > bound+1e-12 {
					return fmt.Errorf("pair %v exceeds delay bound: %w", k, ErrDelayBound)
				}
			}
			return nil
		}
	}
	_, aonRouting, err := mcf.OptimalSubsetContext(ctx, t, lowDemands, opts.Model, mcf.OptimalOpts{
		RandomRestarts: opts.RandomRestarts,
		Seed:           opts.Seed,
		Route:          mcf.RouteOpts{MaxUtil: opts.MaxUtil},
		Check:          check,
		Warm:           opts.Warm.stage(-1),
	})
	if err != nil {
		return nil, wrapPlanErr("core: always-on computation", err)
	}
	opts.emit("always-on", -1, 1, total)

	tables := &Tables{
		Topo:    t,
		Pairs:   make(map[[2]topo.NodeID]*PathSet),
		Variant: opts.Mode.String(),
	}
	for _, d := range lowDemands {
		p, ok := aonRouting.Path(d.O, d.D)
		if !ok {
			return nil, fmt.Errorf("core: no always-on path %d->%d: %w", d.O, d.D, ErrInfeasible)
		}
		tables.Pairs[[2]topo.NodeID{d.O, d.D}] = &PathSet{AlwaysOn: p}
	}

	// ---- REsPoNse-lat (§4.1 constraint 4). ----
	if opts.Beta > 0 {
		tables.Variant = "REsPoNse-lat"
		if err := enforceLatencyBound(t, tables, opts, bounds); err != nil {
			return nil, err
		}
	}
	tables.AlwaysOnSet = alwaysOnElements(t, tables)

	// ---- On-demand tables (§4.2). ----
	if err := planOnDemand(ctx, t, tables, opts, total); err != nil {
		return nil, err
	}

	// ---- Failover paths (§4.3). ----
	planFailover(t, tables, opts.PathEngine)
	opts.emit("failover", -1, rounds+2, total)

	if err := tables.Validate(); err != nil {
		return nil, err
	}
	opts.emit("done", -1, total, total)
	return tables, nil
}

// delayBounds precomputes (1+β)·delayOSPF for every ordered pair of
// the endpoint set.
func delayBounds(t *topo.Topology, nodes []topo.NodeID, beta float64) (map[[2]topo.NodeID]float64, error) {
	out := make(map[[2]topo.NodeID]float64, len(nodes)*(len(nodes)-1))
	opts := spf.Options{Weight: spf.InvCap()}
	for _, o := range nodes {
		tree := spf.ShortestTree(t, o, opts)
		for _, d := range nodes {
			if o == d {
				continue
			}
			p, ok := tree.PathTo(t, d)
			if !ok {
				return nil, fmt.Errorf("core: no OSPF path %d->%d: %w", o, d, ErrInfeasible)
			}
			out[[2]topo.NodeID{o, d}] = (1 + beta) * p.Latency(t)
		}
	}
	return out, nil
}

// enforceLatencyBound swaps always-on paths violating the (1+β)·OSPF
// delay bound for the cheapest bounded alternative. With the bound
// already enforced inside the subset search this is a safety net for
// paths produced by other plan stages. The bounds map is the
// delayBounds precomputation, shared with the subset-search check so
// the OSPF reference paths are solved once per plan.
func enforceLatencyBound(t *topo.Topology, tables *Tables, opts PlanOpts,
	bounds map[[2]topo.NodeID]float64) error {
	active := alwaysOnElements(t, tables)
	ospf := spf.Options{Weight: spf.InvCap()}
	for _, k := range tables.PairKeys() {
		ps := tables.Pairs[k]
		bound, ok := bounds[k]
		if !ok {
			// Pair outside the precomputed endpoint set (custom LowTM):
			// derive its bound directly.
			ref, found := spf.ShortestPath(t, k[0], k[1], ospf)
			if !found {
				return fmt.Errorf("core: no OSPF path %v: %w", k, ErrInfeasible)
			}
			bound = (1 + opts.Beta) * ref.Latency(t)
		}
		if ps.AlwaysOn.Latency(t) <= bound {
			continue
		}
		// Candidate replacement: among the latency-k-shortest paths
		// within the bound, take the one activating the least new power.
		cands := spf.KShortest(t, k[0], k[1], 8, spf.Options{Engine: opts.PathEngine})
		var best topo.Path
		bestCost := math.Inf(1)
		for _, c := range cands {
			if c.Latency(t) > bound {
				continue
			}
			cost := mcf.IncrementalWatts(t, opts.Model, active, c)
			if cost < bestCost {
				best, bestCost = c, cost
			}
		}
		if best.Empty() {
			// The latency-shortest path always satisfies the bound
			// (min-latency ≤ OSPF latency ≤ bound); KShortest returns
			// it first, so this is unreachable unless disconnected.
			return fmt.Errorf("core: no bounded path %v: %w", k, ErrDelayBound)
		}
		ps.AlwaysOn = best
		active.ActivatePath(t, best)
	}
	return nil
}

// alwaysOnElements unions the elements of every always-on path.
func alwaysOnElements(t *topo.Topology, tables *Tables) *topo.ActiveSet {
	a := topo.AllOff(t)
	for _, ps := range tables.Pairs {
		a.ActivatePath(t, ps.AlwaysOn)
	}
	return a
}

// planOnDemand computes the N-2 on-demand tables per the mode. Work
// invariant across rounds — the capacity-gravity sizing shape — is
// computed once here rather than per round.
func planOnDemand(ctx context.Context, t *topo.Topology, tables *Tables, opts PlanOpts, total int) error {
	rounds := opts.N - 2
	// Stress accumulates over always-on plus previously computed
	// on-demand assignments so each round diversifies further.
	var accum []topo.Path
	for _, ps := range tables.Pairs {
		accum = append(accum, ps.AlwaysOn)
	}
	excluded := map[topo.LinkID]bool{}
	// excludedLinks mirrors excluded as a dense slice: Avoid predicates
	// consult it per arc in the innermost Dijkstra loop, where a map
	// lookup is measurable.
	excludedLinks := make([]bool, t.NumLinks())
	var shape *traffic.Matrix
	if opts.Mode == ModeStress {
		shape = traffic.Gravity(t, traffic.GravityOpts{Nodes: opts.Nodes, TotalRate: 1})
	}

	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return wrapPlanErr(fmt.Sprintf("core: on-demand round %d", round), err)
		}
		sf := StressFactorPaths(t, accum)
		for id := range ExcludableStressed(t, sf, opts.StressExclude, excluded) {
			excluded[id] = true
			excludedLinks[id] = true
		}
		var paths map[[2]topo.NodeID]topo.Path
		var err error
		switch opts.Mode {
		case ModeStress:
			paths, err = onDemandStress(ctx, t, tables, opts, shape, excludedLinks, round)
		case ModeSolver:
			paths, err = onDemandSolver(ctx, t, tables, opts, excludedLinks, round)
		case ModeOSPF:
			paths, err = onDemandOSPF(t, tables, round)
		case ModeHeuristic:
			paths, err = onDemandHeuristic(t, tables, opts)
		default:
			err = fmt.Errorf("core: unknown mode %v", opts.Mode)
		}
		if err != nil {
			return wrapPlanErr(fmt.Sprintf("core: on-demand round %d", round), err)
		}
		for k, p := range paths {
			tables.Pairs[k].OnDemand = append(tables.Pairs[k].OnDemand, p)
			accum = append(accum, p)
		}
		opts.emit("on-demand", round, 2+round, total)
	}
	return nil
}

// onDemandStress computes the demand-oblivious on-demand table (§4.2):
// avoid the top-stressed links and solve the min-power problem for a
// *uniform* demand sized near the largest uniformly-routable rate, so
// that the resulting subgraph — unlike the ε-sized always-on tree —
// retains the capacity needed to absorb peak-hour overflow (the
// paper's sensitivity result: 20 % exclusion suffices for always-on +
// on-demand to accommodate peak demands).
func onDemandStress(ctx context.Context, t *topo.Topology, tables *Tables, opts PlanOpts,
	shape *traffic.Matrix, excluded []bool, round int) (map[[2]topo.NodeID]topo.Path, error) {

	avoid := func(a topo.Arc) bool { return excluded[a.Link] }
	// Shape the sizing demand with the capacity-based gravity estimate
	// — derived purely from the topology, so the mode stays
	// demand-oblivious (§5.1 uses the same estimate when matrices are
	// unavailable) — and size it near the largest routable load while
	// avoiding the excluded links, derated to 80 % for slack.
	deltaMax := mcf.MaxFeasibleScale(t, shape, mcf.RouteOpts{
		MaxUtil: opts.MaxUtil, Avoid: avoid,
	}, 0.05)
	sizing := traffic.Uniform(opts.Nodes, epsilon)
	if deltaMax > 0 {
		sizing = shape.Scale(0.8 * deltaMax)
	}
	if opts.Trace != nil {
		nex := 0
		for _, x := range excluded {
			if x {
				nex++
			}
		}
		fmt.Fprintf(opts.Trace, "[core] onDemandStress: excluded=%d deltaMax=%.3g total=%.3g\n",
			nex, deltaMax, sizing.Total())
	}
	low := sizing.Demands()
	_, routing, err := mcf.OptimalSubsetContext(ctx, t, low, opts.Model, mcf.OptimalOpts{
		RandomRestarts: opts.RandomRestarts,
		Seed:           opts.Seed + 1,
		KeepOn:         tables.AlwaysOnSet,
		Route:          mcf.RouteOpts{MaxUtil: opts.MaxUtil, Avoid: avoid},
		Warm:           opts.Warm.stage(round),
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		// ExcludableStressed keeps the graph connected, so this only
		// triggers on pathological inputs; retry without exclusion
		// rather than failing the whole plan.
		_, routing, err = mcf.OptimalSubsetContext(ctx, t, low, opts.Model, mcf.OptimalOpts{
			RandomRestarts: opts.RandomRestarts,
			Seed:           opts.Seed + 1,
			KeepOn:         tables.AlwaysOnSet,
			Route:          mcf.RouteOpts{MaxUtil: opts.MaxUtil},
		})
		if err != nil {
			return nil, err
		}
	}
	return pathsByPair(tables, routing)
}

// onDemandSolver carries always-on X/Y fixed and solves with d_peak.
func onDemandSolver(ctx context.Context, t *topo.Topology, tables *Tables, opts PlanOpts,
	excluded []bool, round int) (map[[2]topo.NodeID]topo.Path, error) {

	demands := opts.PeakTM.Demands()
	var avoid func(a topo.Arc) bool
	if round > 0 { // diversify later tables away from stressed links
		avoid = func(a topo.Arc) bool { return excluded[a.Link] }
	}
	_, routing, err := mcf.OptimalSubsetContext(ctx, t, demands, opts.Model, mcf.OptimalOpts{
		RandomRestarts: opts.RandomRestarts,
		Seed:           opts.Seed + int64(round)*13,
		KeepOn:         tables.AlwaysOnSet,
		Route:          mcf.RouteOpts{MaxUtil: opts.MaxUtil, Avoid: avoid},
		Warm:           opts.Warm.stage(round),
	})
	if err != nil {
		return nil, err
	}
	return pathsByPair(tables, routing)
}

// onDemandOSPF installs the default OSPF-InvCap routing table as the
// on-demand set; additional rounds take the next-shortest InvCap path.
func onDemandOSPF(t *topo.Topology, tables *Tables, round int) (map[[2]topo.NodeID]topo.Path, error) {
	out := make(map[[2]topo.NodeID]topo.Path)
	for _, k := range tables.PairKeys() {
		cands := spf.KShortest(t, k[0], k[1], round+1, spf.Options{Weight: spf.InvCap()})
		if len(cands) == 0 {
			return nil, fmt.Errorf("no OSPF path %v", k)
		}
		i := round
		if i >= len(cands) {
			i = len(cands) - 1
		}
		out[k] = cands[i]
	}
	return out, nil
}

// onDemandHeuristic runs the GreenTE-style packer with d_peak.
// Restricting each pair to its k shortest paths cannot always reach the
// absolute maximum load (that is GreenTE's documented trade-off), so
// the peak is derated step-wise until the packer finds a routing; the
// resulting table is designed for the largest k-routable share of peak.
func onDemandHeuristic(t *topo.Topology, tables *Tables, opts PlanOpts) (map[[2]topo.NodeID]topo.Path, error) {
	cands := mcf.CandidatePathsEngine(t, opts.PeakTM.Demands(), 5, opts.PathEngine)
	var lastErr error
	for _, derate := range []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2} {
		_, routing, err := mcf.KShortestSubset(t, opts.PeakTM.Scale(derate).Demands(),
			opts.Model, mcf.KShortOpts{
				K:       5,
				Paths:   cands,
				KeepOn:  tables.AlwaysOnSet,
				MaxUtil: opts.MaxUtil,
			})
		if err != nil {
			lastErr = err
			continue
		}
		return pathsByPair(tables, routing)
	}
	return nil, lastErr
}

func pathsByPair(tables *Tables, r *mcf.Routing) (map[[2]topo.NodeID]topo.Path, error) {
	out := make(map[[2]topo.NodeID]topo.Path, len(tables.Pairs))
	for _, k := range tables.PairKeys() {
		p, ok := r.Path(k[0], k[1])
		if !ok {
			return nil, fmt.Errorf("no on-demand path %v", k)
		}
		out[k] = p
	}
	return out, nil
}

// planFailover finds, per pair, a path maximally link-disjoint from the
// pair's always-on and on-demand paths (§4.3): strictly disjoint when
// the graph allows it, otherwise the minimum-overlap path via a heavy
// penalty on reused links.
func planFailover(t *topo.Topology, tables *Tables, eng spf.Engine) {
	ws := spf.NewWorkspace()
	used := make([]bool, t.NumLinks())
	avoidUsed := spf.Options{
		Avoid:  func(a topo.Arc) bool { return used[a.Link] },
		Engine: eng,
	}
	penalizeUsed := spf.Options{
		Weight: func(a topo.Arc) float64 {
			w := a.Latency
			if used[a.Link] {
				w *= 1000
			}
			return w
		},
		Engine:       eng,
		LatencyBound: true,
	}
	for _, k := range tables.PairKeys() {
		ps := tables.Pairs[k]
		clear(used)
		for _, p := range ps.Levels() {
			for _, aid := range p.Arcs {
				used[t.Arc(aid).Link] = true
			}
		}
		// Strict disjointness first.
		p, ok := ws.ShortestPath(t, k[0], k[1], avoidUsed)
		if !ok || p.Empty() {
			// Minimum overlap: penalize reused links 1000×.
			p, ok = ws.ShortestPath(t, k[0], k[1], penalizeUsed)
			if !ok {
				continue // disconnected pair: no failover possible
			}
		}
		ps.Failover = p
	}
}
