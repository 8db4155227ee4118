package mcf

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"response/internal/power"
	"response/internal/spf"
	"response/internal/topo"
	"response/internal/traffic"
)

// Order selects the element ordering of the greedy switch-off loop.
type Order int

// Greedy orderings. PowerDesc is the Chiaraviglio et al. heuristic:
// try to power off the most power-hungry devices first.
const (
	PowerDesc Order = iota
	PowerAsc
	DegreeAsc
	Random
)

// GreedyOpts parameterizes GreedyMinSubset.
type GreedyOpts struct {
	Order Order
	// Seed drives the Random order.
	Seed int64
	// KeepOn pins elements on (e.g. always-on elements when computing
	// on-demand paths with X,Y carried over — §4.2).
	KeepOn *topo.ActiveSet
	// Route configures feasibility checks.
	Route RouteOpts
	// Check, when non-nil, vets each candidate routing beyond capacity
	// (e.g. the REsPoNse-lat delay bound, §4.1 constraint 4); a
	// non-nil error keeps the tried element powered. Because Check must
	// see the exact routing a from-scratch solve would produce, setting
	// it disables delta-rerouting (every trial is a full reroute).
	Check func(*Routing) error
	// FullReroute disables the incremental delta-rerouting fast path
	// and evaluates every switch-off candidate with a from-scratch
	// feasibility solve, as the original implementation did. It is the
	// reference mode the equivalence tests compare against.
	FullReroute bool
}

// GreedyMinSubset computes a minimal (w.r.t. inclusion) set of network
// elements that can carry the demands, in the style of Chiaraviglio et
// al.: starting from the full network, repeatedly power off the next
// candidate element and keep it off if the demands still route.
//
// In the capacity-slack regime (see capacitySlack — it covers the
// paper's ε-demand always-on computation), candidate evaluation is
// incremental: per-link residual loads and a link→demands index are
// maintained so that switching an element off reroutes only the
// demands whose current paths traverse it, against the residual
// network, and the final routing is recomputed once on the final
// active set. The verdicts are provably identical to the from-scratch
// reference (GreedyOpts.FullReroute), so the results match
// bit-for-bit. When capacity binds, feasibility genuinely depends on
// global repacking and every trial runs the full solve, as the
// reference does.
//
// It returns the active set (with model invariants enforced) and the
// routing found on it.
func GreedyMinSubset(t *topo.Topology, demands []traffic.Demand, m power.Model,
	opts GreedyOpts) (*topo.ActiveSet, *Routing, error) {
	return greedyMinSubset(context.Background(), t, sortDemands(demands), m, opts,
		spf.NewWorkspace(), nil)
}

// greedyMinSubset is GreedyMinSubset over pre-sorted demands and an
// explicit workspace, shared by the parallel restarts of OptimalSubset.
// baseline, when non-nil, is the full-network routing of the demands
// (identical for every restart, so OptimalSubset solves it once); the
// run takes a private copy before mutating it. A canceled ctx aborts
// between candidate trials with ctx.Err().
func greedyMinSubset(ctx context.Context, t *topo.Topology, sorted []traffic.Demand, m power.Model,
	opts GreedyOpts, ws *spf.Workspace, baseline *Routing) (*topo.ActiveSet, *Routing, error) {

	s := newSubsetSearch(t, sorted, m, OptimalOpts{
		KeepOn: opts.KeepOn, Route: opts.Route, Check: opts.Check, FullReroute: opts.FullReroute})
	active := topo.AllOn(t)
	ro := s.ro
	ro.Active = active
	var routing *Routing
	if baseline != nil {
		routing = baseline.clone()
	} else {
		var err error
		routing, err = routeDemandsSorted(t, sorted, ro, ws)
		if err != nil {
			return nil, nil, err
		}
	}
	if opts.Check != nil {
		if err := opts.Check(routing); err != nil {
			return nil, nil, fmt.Errorf("mcf: baseline routing rejected: %w", err)
		}
	}
	cands := s.candidates()
	orderCands(cands, opts.Order, opts.Seed)
	return s.descend(ctx, active, cands, ws, routing, true)
}

// capacitySlack reports whether no arc can ever hit its capacity cap
// while routing these demands: the sum of all rates fits on the
// thinnest arc. In this regime — which covers the paper's ε-demand
// always-on computation (§4.1) — the feasibility router never prunes
// an arc, so a demand set routes if and only if every pair is
// connected on the active subgraph. That makes the delta verdicts
// below provably identical to the from-scratch reference's.
func capacitySlack(t *topo.Topology, demands []traffic.Demand, maxUtil float64) bool {
	var sum float64
	for _, d := range demands {
		if d.O != d.D {
			sum += d.Rate
		}
	}
	for _, a := range t.Arcs() {
		if sum > a.Capacity*maxUtil {
			return false
		}
	}
	return true
}

// deltaRouter maintains the incremental state of the greedy loop: the
// current routing (with its per-arc residual loads) and, per link, the
// indices of the demands whose current path traverses it. Switching an
// element off reroutes only the affected demands against the residual
// network instead of re-solving the whole multi-commodity problem.
type deltaRouter struct {
	sorted  []traffic.Demand
	routing *Routing
	byLink  [][]int32 // per LinkID: indices into sorted, unordered
	mark    []bool    // per demand index: scratch for dedup
	scratch []int32   // affected-demand collection buffer
}

func newDeltaRouter(t *topo.Topology, sorted []traffic.Demand, r *Routing) *deltaRouter {
	d := &deltaRouter{
		sorted: sorted,
		byLink: make([][]int32, t.NumLinks()),
		mark:   make([]bool, len(sorted)),
	}
	d.adopt(t, r)
	return d
}

// adopt replaces the current routing wholesale and rebuilds the index.
func (dr *deltaRouter) adopt(t *topo.Topology, r *Routing) {
	dr.routing = r
	for l := range dr.byLink {
		dr.byLink[l] = dr.byLink[l][:0]
	}
	for i, d := range dr.sorted {
		if p, ok := r.Paths[[2]topo.NodeID{d.O, d.D}]; ok {
			dr.index(t, int32(i), p)
		}
	}
}

// index adds demand di to the per-link lists of p.
func (dr *deltaRouter) index(t *topo.Topology, di int32, p topo.Path) {
	for _, aid := range p.Arcs {
		l := t.Arc(aid).Link
		dr.byLink[l] = append(dr.byLink[l], di)
	}
}

// unindex removes demand di from the per-link lists of p.
func (dr *deltaRouter) unindex(t *topo.Topology, di int32, p topo.Path) {
	for _, aid := range p.Arcs {
		l := t.Arc(aid).Link
		list := dr.byLink[l]
		for k, v := range list {
			if v == di {
				list[k] = list[len(list)-1]
				dr.byLink[l] = list[:len(list)-1]
				break
			}
		}
	}
}

// try evaluates one switch-off trial in the capacity-slack regime.
// active is the current accepted set, trial the candidate set
// (invariants enforced); ro.Active must already point at trial. It
// reports whether the trial is feasible; on success the internal
// routing has been patched in place, on failure all state is rolled
// back.
//
// Exactness: with capacity slack the router never prunes an arc, so
// the from-scratch reference succeeds iff every demand pair is
// connected on trial. Unaffected pairs are connected (their current
// paths avoid the removed elements), so routing just the affected
// pairs decides the identical verdict at a fraction of the cost — and
// a single placement pass suffices, because the spreading-penalty
// ladder can only change which path is found, never whether one is.
func (dr *deltaRouter) try(t *topo.Topology, active, trial *topo.ActiveSet,
	ro RouteOpts, ws *spf.Workspace) bool {

	// Demands affected by the elements this trial powers off. A router
	// removal also removes all its incident links (invariant 1), so the
	// link diff covers every traversal and endpoint case.
	affected := dr.scratch[:0]
	for l := range dr.byLink {
		if active.Link[l] && !trial.Link[l] {
			for _, di := range dr.byLink[l] {
				if !dr.mark[di] {
					dr.mark[di] = true
					affected = append(affected, di)
				}
			}
		}
	}
	dr.scratch = affected
	for _, di := range affected {
		dr.mark[di] = false
	}
	if len(affected) == 0 {
		// No current path touches the removed elements: the routing is
		// already feasible on the trial set. Accept for free.
		return true
	}
	// Reroute in first-fit-decreasing order (sorted is FFD-ordered, so
	// ascending index order is largest-first).
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })

	// Tear the affected demands out, remembering their paths for rollback.
	saved := make([]topo.Path, len(affected))
	for k, di := range affected {
		d := dr.sorted[di]
		key := [2]topo.NodeID{d.O, d.D}
		saved[k] = dr.routing.Paths[key]
		dr.routing.Unassign(d.O, d.D, d.Rate)
	}

	// Place them against the residual network; the trial set is this
	// trial's alone, so its pass graph is compiled here.
	g := ro.compile(t, ws)
	placed := 0
	ok := true
	for _, di := range affected {
		d := dr.sorted[di]
		p, found := ws.ShortestPathLoad(t, g, d.O, d.D, dr.routing.Load, d.Rate, loadPenalty)
		if !found || p.Empty() {
			ok = false
			break
		}
		dr.routing.Assign(d.O, d.D, p, d.Rate)
		placed++
	}
	if ok {
		// Commit: swap the index entries over to the new paths.
		for k, di := range affected {
			d := dr.sorted[di]
			dr.unindex(t, di, saved[k])
			p := dr.routing.Paths[[2]topo.NodeID{d.O, d.D}]
			dr.index(t, di, p)
		}
		return true
	}
	// Some affected pair is disconnected on trial, so the reference
	// solve would fail too: reject without a fallback, restoring the
	// original assignments.
	for k := 0; k < placed; k++ {
		d := dr.sorted[affected[k]]
		dr.routing.Unassign(d.O, d.D, d.Rate)
	}
	for k, di := range affected {
		d := dr.sorted[di]
		dr.routing.Assign(d.O, d.D, saved[k], d.Rate)
	}
	return false
}

func violatesKeepOn(a, keep *topo.ActiveSet) bool {
	if keep == nil {
		return false
	}
	for i, on := range keep.Router {
		if on && !a.Router[i] {
			return true
		}
	}
	for i, on := range keep.Link {
		if on && !a.Link[i] {
			return true
		}
	}
	return false
}

// trimIdle powers off active elements that carry no traffic and are not
// pinned, then re-enforces invariants.
func trimIdle(t *topo.Topology, active *topo.ActiveSet, r *Routing, keep *topo.ActiveSet) {
	used := r.UsedElements(t)
	for _, l := range t.Links() {
		if active.Link[l.ID] && !used.Link[l.ID] && (keep == nil || !keep.Link[l.ID]) {
			active.Link[l.ID] = false
		}
	}
	for _, n := range t.Nodes() {
		if n.Kind == topo.KindHost {
			continue
		}
		if active.Router[n.ID] && !used.Router[n.ID] && (keep == nil || !keep.Router[n.ID]) {
			active.Router[n.ID] = false
		}
	}
	active.EnforceInvariants(t)
	// Sources and destinations must stay on even if EnforceInvariants
	// would drop isolated routers; re-activate endpoints of paths.
	for _, p := range r.Paths {
		active.ActivatePath(t, p)
	}
}

// OptimalOpts parameterizes the multi-restart "optimal" stand-in.
type OptimalOpts struct {
	// RandomRestarts adds this many random-order greedy runs to the
	// deterministic orderings (default 4; a negative value runs only
	// the deterministic orderings).
	RandomRestarts int
	Seed           int64
	KeepOn         *topo.ActiveSet
	Route          RouteOpts
	// Check is forwarded to every greedy run (see GreedyOpts.Check).
	Check func(*Routing) error
	// FullReroute is forwarded to every greedy run (see GreedyOpts).
	FullReroute bool
	// Warm, when non-nil, seeds the search from a previous result: a
	// single descent starts from the warm element set (repaired to
	// feasibility if needed) with candidates tried in ascending
	// energy-criticality order and hopeless bridges pruned. When the
	// descended result lands within Warm.Tolerance of the seed's power
	// the restart pool is skipped entirely — the early termination that
	// makes replans incremental. A seed that cannot be repaired, fails
	// Check, or misses the tolerance falls back to the cold
	// multi-restart search below, so Warm never changes what is
	// achievable, only how fast it is reached.
	Warm *WarmStart
}

// OptimalSubset approximates the paper's CPLEX-computed minimum network
// subset by taking the best (lowest-power) result across greedy runs
// with several element orderings plus random restarts. DESIGN.md §2
// documents this substitution; tests cross-check it against the exact
// MILP on small instances.
//
// The runs execute concurrently on a bounded worker pool (one
// goroutine per processor), each with its own Dijkstra workspace. The
// winner is selected deterministically — strictly lower power wins,
// ties go to the earlier run in the fixed ordering sequence — so the
// result is identical regardless of GOMAXPROCS or scheduling.
func OptimalSubset(t *topo.Topology, demands []traffic.Demand, m power.Model,
	opts OptimalOpts) (*topo.ActiveSet, *Routing, error) {
	return OptimalSubsetContext(context.Background(), t, demands, m, opts)
}

// OptimalSubsetContext is OptimalSubset with cancellation. The restart
// dispatch selects on ctx.Done, every in-flight greedy run aborts
// between candidate trials, and cancellation always returns the same
// error — ctx.Err() — regardless of which run observed it first, so the
// early return is deterministic. No worker goroutine outlives the call.
func OptimalSubsetContext(ctx context.Context, t *topo.Topology, demands []traffic.Demand,
	m power.Model, opts OptimalOpts) (*topo.ActiveSet, *Routing, error) {

	if opts.RandomRestarts == 0 {
		opts.RandomRestarts = 4
	}
	if opts.Warm != nil && opts.Warm.Active != nil {
		a, r, ok, err := warmSubset(ctx, t, sortDemands(demands), m, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("mcf: optimal subset: %w", err)
		}
		if ok {
			return a, r, nil
		}
	}
	base := GreedyOpts{KeepOn: opts.KeepOn, Route: opts.Route, Check: opts.Check,
		FullReroute: opts.FullReroute}
	var runs []GreedyOpts
	for _, ord := range []Order{PowerDesc, DegreeAsc, PowerAsc} {
		g := base
		g.Order = ord
		runs = append(runs, g)
	}
	for i := 0; i < opts.RandomRestarts; i++ {
		g := base
		g.Order = Random
		g.Seed = opts.Seed + int64(i)*7919
		runs = append(runs, g)
	}

	sorted := sortDemands(demands) // shared, read-only across runs
	// Every restart starts from the same full-network routing; solve it
	// once and let each run clone it (path slices are never mutated in
	// place, so sharing them across goroutines is safe).
	ro := opts.Route
	ro.defaults()
	ro.Active = topo.AllOn(t)
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("mcf: optimal subset: %w", err)
	}
	ws := spf.NewWorkspace()
	baseline, err := routeDemandsSorted(t, sorted, ro, ws)
	if err != nil {
		return nil, nil, err
	}
	type result struct {
		active  *topo.ActiveSet
		routing *Routing
		watts   float64
		err     error
	}
	results := make([]result, len(runs))
	// One workspace per worker, not per run: its label arrays and
	// compiled pass graph amortise across the runs the worker serves.
	runOne := func(i int, ws *spf.Workspace) {
		a, r, err := greedyMinSubset(ctx, t, sorted, m, runs[i], ws, baseline)
		if err != nil {
			results[i].err = err
			return
		}
		results[i] = result{active: a, routing: r, watts: power.NetworkWatts(t, m, a)}
	}
	if workers := min(runtime.GOMAXPROCS(0), len(runs)); workers <= 1 {
		for i := range runs {
			if ctx.Err() != nil {
				break
			}
			runOne(i, ws)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := spf.NewWorkspace()
				for i := range next {
					runOne(i, ws)
				}
			}()
		}
	dispatch:
		for i := range runs {
			select {
			case next <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(next)
		wg.Wait()
	}

	// Deterministic early return on cancellation: whatever subset of
	// runs completed (or aborted mid-loop), the caller always sees the
	// context's own error.
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("mcf: optimal subset: %w", err)
	}

	// Deterministic selection: first error in run order aborts (as the
	// sequential implementation did); otherwise strictly lower power
	// wins and ties keep the earliest run.
	var best *result
	for i := range results {
		if results[i].err != nil {
			return nil, nil, results[i].err
		}
		if best == nil || results[i].watts < best.watts {
			best = &results[i]
		}
	}
	return best.active, best.routing, nil
}
