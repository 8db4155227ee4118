package mcf

import (
	"fmt"
	"sort"

	"response/internal/power"
	"response/internal/spf"
	"response/internal/topo"
	"response/internal/traffic"
)

// KShortOpts parameterizes the GreenTE-style heuristic (§2.3, Zhang et
// al.): restrict each (O,D) pair to its k shortest paths and pack
// demands so as to minimize incrementally activated power.
type KShortOpts struct {
	// K is the candidate path budget per pair (default 5, GreenTE's
	// published sweet spot).
	K int
	// KeepOn pins elements on before packing starts.
	KeepOn *topo.ActiveSet
	// MaxUtil caps per-arc utilization (default 1.0).
	MaxUtil float64
	// Paths, when non-nil, supplies precomputed candidates (keyed by
	// [O,D]); otherwise Yen's algorithm runs per pair (callers that
	// want a goal-directed engine precompute with CandidatePathsEngine).
	Paths map[[2]topo.NodeID][]topo.Path
}

// CandidatePaths precomputes the k shortest latency paths for every
// demand pair; heavy topologies (large fat-trees) should compute this
// once and reuse it across intervals.
func CandidatePaths(t *topo.Topology, demands []traffic.Demand, k int) map[[2]topo.NodeID][]topo.Path {
	return CandidatePathsEngine(t, demands, k, spf.EngineReference)
}

// CandidatePathsEngine is CandidatePaths through a selectable path
// engine. All engines return identical candidates (the goal-directed
// ones are certified-exact); the choice only changes how fast the Yen
// runs go. A single workspace is reused across pairs so the engine's
// landmark and adaptive-bailout state carries over.
func CandidatePathsEngine(t *topo.Topology, demands []traffic.Demand, k int, eng spf.Engine) map[[2]topo.NodeID][]topo.Path {
	out := make(map[[2]topo.NodeID][]topo.Path)
	ws := spf.NewWorkspace()
	opts := spf.Options{Engine: eng}
	for _, d := range demands {
		key := [2]topo.NodeID{d.O, d.D}
		if _, done := out[key]; done || d.O == d.D {
			continue
		}
		out[key] = ws.KShortest(t, d.O, d.D, k, opts)
	}
	return out
}

// KShortestSubset packs demands (largest first) onto each pair's k
// shortest paths, choosing for every demand the candidate that
// minimizes newly-activated power (ties: lowest resulting utilization).
// Elements never touched stay off.
func KShortestSubset(t *topo.Topology, demands []traffic.Demand, m power.Model,
	opts KShortOpts) (*topo.ActiveSet, *Routing, error) {

	if opts.K == 0 {
		opts.K = 5
	}
	if opts.MaxUtil == 0 {
		opts.MaxUtil = 1.0
	}
	cands := opts.Paths
	if cands == nil {
		cands = CandidatePaths(t, demands, opts.K)
	}
	active := topo.AllOff(t)
	if opts.KeepOn != nil {
		active.Union(opts.KeepOn)
	}
	r := NewRouting(t)
	ordered := append([]traffic.Demand(nil), demands...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Rate > ordered[j].Rate })

	for _, d := range ordered {
		if d.O == d.D || d.Rate == 0 {
			continue
		}
		key := [2]topo.NodeID{d.O, d.D}
		paths := cands[key]
		if len(paths) == 0 {
			return nil, nil, fmt.Errorf("%w: no candidate path %d->%d", ErrInfeasible, d.O, d.D)
		}
		bestIdx := -1
		var bestCost, bestUtil float64
		for i, p := range paths {
			if overflows(t, r.Load, p, d.Rate, opts.MaxUtil) {
				continue
			}
			cost := IncrementalWatts(t, m, active, p)
			util := worstUtilAfter(t, r.Load, p, d.Rate)
			if bestIdx < 0 || cost < bestCost-1e-9 ||
				(cost < bestCost+1e-9 && util < bestUtil) {
				bestIdx, bestCost, bestUtil = i, cost, util
			}
		}
		if bestIdx < 0 {
			return nil, nil, fmt.Errorf("%w: %d->%d rate %.3g (k=%d)",
				ErrInfeasible, d.O, d.D, d.Rate, opts.K)
		}
		p := paths[bestIdx]
		r.Assign(d.O, d.D, p, d.Rate)
		active.ActivatePath(t, p)
	}
	return active, r, nil
}

func overflows(t *topo.Topology, load []float64, p topo.Path, rate, maxUtil float64) bool {
	for _, aid := range p.Arcs {
		if load[aid]+rate > t.Arc(aid).Capacity*maxUtil+1e-9 {
			return true
		}
	}
	return false
}

func worstUtilAfter(t *topo.Topology, load []float64, p topo.Path, rate float64) float64 {
	var mx float64
	for _, aid := range p.Arcs {
		u := (load[aid] + rate) / t.Arc(aid).Capacity
		if u > mx {
			mx = u
		}
	}
	return mx
}

// IncrementalWatts prices the elements p would newly activate beyond
// active.
func IncrementalWatts(t *topo.Topology, m power.Model, active *topo.ActiveSet, p topo.Path) float64 {
	var w float64
	seenLink := make(map[topo.LinkID]bool, len(p.Arcs))
	touch := func(n topo.NodeID) {
		node := t.Node(n)
		if node.Kind != topo.KindHost && !active.Router[n] {
			w += m.ChassisWatts(node)
		}
	}
	if !p.Empty() {
		touch(p.Origin(t))
	}
	for _, aid := range p.Arcs {
		a := t.Arc(aid)
		touch(a.To)
		if !active.Link[a.Link] && !seenLink[a.Link] {
			seenLink[a.Link] = true
			w += power.LinkWatts(t, m, t.Link(a.Link))
		}
	}
	return w
}

// MaxFeasibleScale finds the largest multiplier s such that base scaled
// by s still routes on the full topology — the paper's procedure for
// marking the 100 % load point (§5.1: "incrementally increasing the
// traffic demand by 10 % up to a point where CPLEX cannot find a
// routing"). A 10 % grid walk is refined by bisection to tol.
func MaxFeasibleScale(t *topo.Topology, base *traffic.Matrix, opts RouteOpts, tol float64) float64 {
	if tol <= 0 {
		tol = 0.01
	}
	// The probe loop below runs dozens of feasibility solves; sort the
	// demands once (scaling by s > 0 preserves the first-fit-decreasing
	// order) and reuse one workspace and one scaled buffer throughout.
	demands := sortDemands(base.Demands())
	scaled := make([]traffic.Demand, len(demands))
	ws := spf.NewWorkspace()
	feasible := func(s float64) bool {
		for i, d := range demands {
			scaled[i] = traffic.Demand{O: d.O, D: d.D, Rate: d.Rate * s}
		}
		_, err := routeDemandsSorted(t, scaled, opts, ws)
		return err == nil
	}
	if !feasible(1e-9) {
		return 0
	}
	lo := 0.0
	hi := 1.0
	// Grow until infeasible. The cap is a pure runaway guard: the
	// scale is a dimensionless multiplier and bases expressed in
	// bits/s against multi-Gb/s networks legitimately need 1e10+.
	for feasible(hi) {
		lo = hi
		hi *= 2
		if hi > 1e18 {
			return lo
		}
	}
	// Tighten with a 10% grid inside [lo, hi] (the paper's procedure),
	// then bisect. Skipped when lo is zero (nothing to grid from).
	if lo > 0 {
		for step := lo * 1.1; step < hi && feasible(step); step *= 1.1 {
			lo = step
		}
	}
	for hi-lo > tol*lo {
		mid := (lo + hi) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
