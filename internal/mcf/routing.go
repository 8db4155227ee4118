// Package mcf implements the paper's energy-aware routing machinery
// (§2.2): the multi-commodity-flow model with element power states, an
// unsplittable-flow feasibility router, the greedy minimum-subset
// heuristic family (Chiaraviglio-style, with multi-ordering restarts
// and local search standing in for the CPLEX "optimal"), a GreenTE-like
// k-shortest-paths heuristic, and the exact MILP formulation for
// cross-checks at Figure 3 scale.
package mcf

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"response/internal/spf"
	"response/internal/topo"
	"response/internal/traffic"
)

// ErrInfeasible reports that demands cannot be routed on the active
// subgraph within capacity.
var ErrInfeasible = errors.New("mcf: demands not routable on active subgraph")

// Routing maps every (O,D) demand to a single path (the binary f
// variables of §2.2.1) and tracks the per-arc load it induces.
type Routing struct {
	Paths map[[2]topo.NodeID]topo.Path
	Load  []float64 // bits/s per arc
}

// NewRouting returns an empty routing for t.
func NewRouting(t *topo.Topology) *Routing {
	return &Routing{
		Paths: make(map[[2]topo.NodeID]topo.Path),
		Load:  make([]float64, t.NumArcs()),
	}
}

// clone returns a copy sharing the (immutable) path arc slices but
// owning its Paths map and Load vector, so the copy can be patched
// independently.
func (r *Routing) clone() *Routing {
	c := &Routing{
		Paths: make(map[[2]topo.NodeID]topo.Path, len(r.Paths)),
		Load:  append([]float64(nil), r.Load...),
	}
	for k, v := range r.Paths {
		c.Paths[k] = v
	}
	return c
}

// Path returns the path assigned to (o,d).
func (r *Routing) Path(o, d topo.NodeID) (topo.Path, bool) {
	p, ok := r.Paths[[2]topo.NodeID{o, d}]
	return p, ok
}

// Assign records p for (o,d) with the given rate, updating loads.
func (r *Routing) Assign(o, d topo.NodeID, p topo.Path, rate float64) {
	r.Paths[[2]topo.NodeID{o, d}] = p
	for _, aid := range p.Arcs {
		r.Load[aid] += rate
	}
}

// Unassign removes the (o,d) path, subtracting its load.
func (r *Routing) Unassign(o, d topo.NodeID, rate float64) {
	k := [2]topo.NodeID{o, d}
	p, ok := r.Paths[k]
	if !ok {
		return
	}
	for _, aid := range p.Arcs {
		r.Load[aid] -= rate
		if r.Load[aid] < 0 {
			r.Load[aid] = 0
		}
	}
	delete(r.Paths, k)
}

// UsedElements returns the active set implied by the routing: every
// router and link on some assigned path, with model invariants applied.
func (r *Routing) UsedElements(t *topo.Topology) *topo.ActiveSet {
	a := topo.AllOff(t)
	for _, p := range r.Paths {
		a.ActivatePath(t, p)
	}
	return a
}

// Validate checks structural soundness: each path is simple, connects
// its (O,D) pair, and Load is consistent with the given demands.
func (r *Routing) Validate(t *topo.Topology, demands []traffic.Demand) error {
	load := make([]float64, t.NumArcs())
	for _, d := range demands {
		p, ok := r.Paths[[2]topo.NodeID{d.O, d.D}]
		if !ok {
			return fmt.Errorf("mcf: demand %d->%d unrouted", d.O, d.D)
		}
		if err := p.Check(t); err != nil {
			return fmt.Errorf("mcf: demand %d->%d: %w", d.O, d.D, err)
		}
		if p.Empty() {
			// Legal for self-demands and zero-rate placeholders.
			if d.O != d.D && d.Rate != 0 {
				return fmt.Errorf("mcf: demand %d->%d got empty path", d.O, d.D)
			}
			continue
		}
		if p.Origin(t) != d.O || p.Destination(t) != d.D {
			return fmt.Errorf("mcf: demand %d->%d path endpoints %d->%d",
				d.O, d.D, p.Origin(t), p.Destination(t))
		}
		for _, aid := range p.Arcs {
			load[aid] += d.Rate
		}
	}
	for i := range load {
		if math.Abs(load[i]-r.Load[i]) > 1e-6*(1+load[i]) {
			return fmt.Errorf("mcf: arc %d load mismatch: %.3f vs %.3f", i, r.Load[i], load[i])
		}
	}
	return nil
}

// RouteOpts parameterizes the feasibility router.
//
// Avoid must be pure for the duration of one call: the router
// evaluates it once per arc when it compiles a pass graph
// (spf.LoadGraph) and reuses the answers for every query of the call,
// instead of re-asking on every relaxation. The base arc weight is
// latency. Active may grow between
// the queries of a warm-start repair; the graph is recompiled there.
type RouteOpts struct {
	// Active restricts routing to powered elements (nil = all on).
	Active *topo.ActiveSet
	// Avoid excludes arcs (stress-factor exclusion, failures, ...).
	Avoid func(a topo.Arc) bool
	// MaxUtil caps per-arc utilization; effective capacity is
	// MaxUtil × capacity (default 1.0). This realizes the paper's
	// safety margin sm (§4.5).
	MaxUtil float64
}

// loadPenalty steers paths away from loaded arcs: a query's arc weight
// is multiplied by (1 + loadPenalty·util).
const loadPenalty float64 = 3

func (o *RouteOpts) defaults() {
	if o.MaxUtil == 0 {
		o.MaxUtil = 1.0
	}
}

// compile builds, in ws's graph buffer, the pass graph of everything
// the options hold constant across load-aware queries: the Active and
// Avoid survivors with their base weights and MaxUtil-scaled
// capacities. Defaults must already be applied.
func (o RouteOpts) compile(t *topo.Topology, ws *spf.Workspace) *spf.LoadGraph {
	g := ws.LoadGraph()
	// A nil weight makes Compile read latency straight off the arc
	// instead of calling a WeightFunc.
	g.Compile(t, o.Active, o.Avoid, nil, o.MaxUtil)
	return g
}

// RouteDemands routes every demand unsplittably on the (optionally
// restricted) subgraph, never exceeding MaxUtil per arc. Demands are
// placed largest-first (first-fit-decreasing) over a load-penalized
// shortest path, which is the classic bin-packing-style heuristic the
// literature uses for this NP-hard feasibility problem (§2.2.2).
// Because first-fit is not monotone in load, a failed pass is retried
// with stronger spreading penalties before giving up.
//
// It returns ErrInfeasible if some demand cannot be placed.
func RouteDemands(t *topo.Topology, demands []traffic.Demand, opts RouteOpts) (*Routing, error) {
	return routeDemandsSorted(t, sortDemands(demands), opts, spf.NewWorkspace())
}

// sortDemands returns the demands in first-fit-decreasing order. The
// planning loops sort once and reuse the result across every trial
// instead of re-copying and re-sorting per feasibility check.
func sortDemands(demands []traffic.Demand) []traffic.Demand {
	ordered := append([]traffic.Demand(nil), demands...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Rate > ordered[j].Rate })
	return ordered
}

// penaltyLadder is the spreading-penalty retry schedule of RouteDemands.
func penaltyLadder(base float64) [3]float64 { return [3]float64{base, base * 4, 0} }

// routeDemandsSorted is RouteDemands over a pre-sorted demand list and
// an explicit Dijkstra workspace. The pass graph is compiled once and
// shared by the whole penalty ladder: the passes differ only in the
// spreading penalty, which is a query argument.
func routeDemandsSorted(t *topo.Topology, sorted []traffic.Demand, opts RouteOpts, ws *spf.Workspace) (*Routing, error) {
	opts.defaults()
	g := opts.compile(t, ws)
	var lastErr error
	for _, penalty := range penaltyLadder(loadPenalty) {
		r, err := routePass(t, sorted, g, penalty, ws)
		if err == nil {
			return r, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// routePass is one first-fit-decreasing placement attempt over the
// compiled pass graph g. Every search runs through ws, so the pass
// allocates only the routing it returns.
func routePass(t *topo.Topology, sorted []traffic.Demand, g *spf.LoadGraph, penalty float64,
	ws *spf.Workspace) (*Routing, error) {

	r := NewRouting(t)
	for _, d := range sorted {
		if d.O == d.D || d.Rate == 0 {
			r.Paths[[2]topo.NodeID{d.O, d.D}] = topo.Path{}
			continue
		}
		p, ok := ws.ShortestPathLoad(t, g, d.O, d.D, r.Load, d.Rate, penalty)
		if !ok || p.Empty() {
			return nil, fmt.Errorf("%w: %d->%d rate %.3g", ErrInfeasible, d.O, d.D, d.Rate)
		}
		r.Assign(d.O, d.D, p, d.Rate)
	}
	return r, nil
}

// Feasible reports whether all demands fit on the active subgraph.
func Feasible(t *topo.Topology, demands []traffic.Demand, opts RouteOpts) bool {
	_, err := RouteDemands(t, demands, opts)
	return err == nil
}
