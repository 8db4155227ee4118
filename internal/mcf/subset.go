package mcf

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"response/internal/criticality"
	"response/internal/power"
	"response/internal/spf"
	"response/internal/topo"
	"response/internal/traffic"
)

// DefaultWarmTolerance is the power-regression gate of a warm-started
// subset search: the warm result is accepted — and the cold restart
// pool skipped — only if its power is within this fraction of the warm
// seed's own (pre-repair) power.
const DefaultWarmTolerance = 0.05

// WarmStart seeds the subset search from a previous planning result,
// the structural answer to the offline scaling wall (ROADMAP): a
// diurnal step or deviation-triggered replan starts from the last
// plan's element set and re-proves only the delta instead of
// re-descending from the full network.
type WarmStart struct {
	// Active is the element set of the previous result (a plan's
	// always-on set, or a stage-specific union). It is cloned before
	// use; the caller's set is never mutated.
	Active *topo.ActiveSet
	// Tolerance gates acceptance of the warm descent: the result is
	// kept iff its power is ≤ (1+Tolerance) × the seed's pre-repair
	// power. Since the descent only removes elements, the gate can
	// fail only when feasibility repair had to grow the seed beyond
	// the tolerance — the signal that the seed no longer represents
	// the current inputs — and in that case the search bails to the
	// cold pool immediately after repair rather than paying for a
	// near-cold descent it would almost certainly reject. Zero
	// selects DefaultWarmTolerance; a negative value always accepts.
	Tolerance float64
}

// tolerance returns the effective acceptance tolerance.
func (w *WarmStart) tolerance() float64 {
	if w.Tolerance == 0 {
		return DefaultWarmTolerance
	}
	return w.Tolerance
}

// cand is one switch-off candidate of the greedy descent.
type cand struct {
	isRouter bool
	router   topo.NodeID
	link     topo.LinkID
	watts    float64
	degree   int
	score    float64 // energy-criticality, warm descent only
}

// subsetSearch is the reusable state of one minimum-subset problem:
// topology, FFD-sorted demands, pricing and routing configuration. The
// cold greedy runs and the warm descent are both descents of the same
// machine (descend) from different starting sets over differently
// ordered candidates.
type subsetSearch struct {
	t           *topo.Topology
	sorted      []traffic.Demand
	m           power.Model
	ro          RouteOpts // defaults applied; Active is per-descent state
	keepOn      *topo.ActiveSet
	check       func(*Routing) error
	fullReroute bool
}

func newSubsetSearch(t *topo.Topology, sorted []traffic.Demand, m power.Model,
	opts OptimalOpts) *subsetSearch {
	ro := opts.Route
	ro.defaults()
	return &subsetSearch{
		t: t, sorted: sorted, m: m, ro: ro,
		keepOn: opts.KeepOn, check: opts.Check, fullReroute: opts.FullReroute,
	}
}

// candidates enumerates every switch-off candidate — routers then
// links, skipping pinned elements — with its power cost and degree.
// The enumeration order is the stable base the cold orderings permute,
// so it must not change: cold results are pinned bit-for-bit.
func (s *subsetSearch) candidates() []cand {
	var cands []cand
	for _, n := range s.t.Nodes() {
		if n.Kind == topo.KindHost {
			continue
		}
		if s.keepOn != nil && s.keepOn.Router[n.ID] {
			continue
		}
		w := s.m.ChassisWatts(n)
		for _, aid := range s.t.Out(n.ID) {
			w += s.m.PortWatts(n, s.t.Arc(aid))
		}
		cands = append(cands, cand{isRouter: true, router: n.ID, watts: w, degree: s.t.Degree(n.ID)})
	}
	for _, l := range s.t.Links() {
		if s.keepOn != nil && s.keepOn.Link[l.ID] {
			continue
		}
		cands = append(cands, cand{isRouter: false, link: l.ID, watts: power.LinkWatts(s.t, s.m, l)})
	}
	return cands
}

// orderCands permutes cands in place per the cold greedy ordering.
func orderCands(cands []cand, order Order, seed int64) {
	switch order {
	case PowerDesc:
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].watts > cands[j].watts })
	case PowerAsc:
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].watts < cands[j].watts })
	case DegreeAsc:
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].isRouter != cands[j].isRouter {
				return cands[i].isRouter // routers first
			}
			return cands[i].degree < cands[j].degree
		})
	case Random:
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	}
}

// descend runs the greedy switch-off loop from the given starting set
// over the given candidate order: try each candidate off, keep it off
// if the demands still route (and Check still passes). routing must be
// a solve of the demands on start that descend may mutate; fresh
// reports whether it is the exact from-scratch solve on start (the
// final routing is re-solved when staleness was introduced, so the
// result matches the reference implementation byte-for-byte). The
// final set is trimmed of idle elements.
func (s *subsetSearch) descend(ctx context.Context, active *topo.ActiveSet, cands []cand,
	ws *spf.Workspace, routing *Routing, fresh bool) (*topo.ActiveSet, *Routing, error) {

	ro := s.ro
	ro.Active = active

	// Delta-rerouting is exact — provably the same accept/reject
	// verdicts as the from-scratch reference — only in the
	// capacity-slack regime, where feasibility reduces to connectivity
	// (see capacitySlack). Outside it (and whenever Check must vet the
	// exact reference routing) every trial runs the full solve.
	incremental := !s.fullReroute && s.check == nil && capacitySlack(s.t, s.sorted, ro.MaxUtil)
	var delta *deltaRouter
	if incremental {
		delta = newDeltaRouter(s.t, s.sorted, routing)
	}

	for _, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		trial := active.Clone()
		if c.isRouter {
			if !trial.Router[c.router] {
				continue
			}
			trial.Router[c.router] = false
		} else {
			if !trial.Link[c.link] {
				continue
			}
			trial.Link[c.link] = false
		}
		trial.EnforceInvariants(s.t)
		if violatesKeepOn(trial, s.keepOn) {
			continue
		}
		ro.Active = trial
		if incremental {
			if delta.try(s.t, active, trial, ro, ws) {
				active = trial
				fresh = false
			}
			continue
		}
		r, err := routeDemandsSorted(s.t, s.sorted, ro, ws)
		if err != nil {
			continue // must stay on
		}
		if s.check != nil && s.check(r) != nil {
			continue // violates the caller's constraint (e.g. delay bound)
		}
		active = trial
		routing = r
	}
	if incremental {
		routing = delta.routing
	}
	if !fresh {
		// Re-solve from scratch on the final active set so the returned
		// routing is byte-identical to the reference implementation's
		// (which rerouted everything at its last accepted switch-off).
		ro.Active = active
		if r, err := routeDemandsSorted(s.t, s.sorted, ro, ws); err == nil {
			routing = r
		}
	}
	// Drop elements the final routing does not touch (constraint 3
	// tightening): an on element carrying nothing can sleep unless
	// pinned.
	trimIdle(s.t, active, routing, s.keepOn)
	return active, routing, nil
}

// repair routes the demands on the hint subgraph, minimally expanding
// the hint when some demand has no path on it: the unroutable demand
// is placed on the full network and its path's elements are powered
// on, growing the hint in place. The bool result reports whether the
// returned routing is the exact from-scratch solve on the (final)
// hint set; when the per-demand fallback ran it is not, and the
// descent re-solves at the end.
func (s *subsetSearch) repair(hint *topo.ActiveSet, ws *spf.Workspace) (*Routing, bool, error) {
	ro := s.ro
	ro.Active = hint
	if r, err := routeDemandsSorted(s.t, s.sorted, ro, ws); err == nil {
		return r, true, nil
	}
	// The hint graph is a snapshot of the hint set, so it is recompiled
	// every time a woken path grows the set; the full-network fallback
	// graph is needed only once some demand misses, and keeps its own
	// buffer because both are live at once.
	r := NewRouting(s.t)
	g := ro.compile(s.t, ws)
	var full *spf.LoadGraph
	for _, d := range s.sorted {
		if d.O == d.D || d.Rate == 0 {
			r.Paths[[2]topo.NodeID{d.O, d.D}] = topo.Path{}
			continue
		}
		p, ok := ws.ShortestPathLoad(s.t, g, d.O, d.D, r.Load, d.Rate, loadPenalty)
		if !ok || p.Empty() {
			// Disconnected (or saturated) on the hint: place on the full
			// network and wake the path, so later searches see the
			// expanded hint.
			if full == nil {
				full = new(spf.LoadGraph)
				full.Compile(s.t, nil, ro.Avoid, nil, ro.MaxUtil)
			}
			p, ok = ws.ShortestPathLoad(s.t, full, d.O, d.D, r.Load, d.Rate, loadPenalty)
			if !ok || p.Empty() {
				return nil, false, fmt.Errorf("%w: %d->%d rate %.3g", ErrInfeasible, d.O, d.D, d.Rate)
			}
			hint.ActivatePath(s.t, p)
			g = ro.compile(s.t, ws)
		}
		r.Assign(d.O, d.D, p, d.Rate)
	}
	return r, false, nil
}

// criticalityScores ranks links by energy-criticality — flow-through ×
// slack-sensitivity — with a HITS-style mutual reinforcement over the
// link→demand incidence of the routing: a link is critical when it
// carries demands that themselves depend on critical links, seeded and
// reweighted by link utilization (the slack term). Low scores mark
// links the warm descent should try to switch off first. The HITS
// kernel lives in internal/criticality (shared with the trace store's
// online critical-path query) and preserves this call site's exact
// float-operation order — plan fingerprints pin it.
func criticalityScores(t *topo.Topology, sorted []traffic.Demand, r *Routing, maxUtil float64) []float64 {
	util := make([]float64, t.NumLinks())
	for _, l := range t.Links() {
		u := r.Load[l.AB] / (t.Arc(l.AB).Capacity * maxUtil)
		if v := r.Load[l.BA] / (t.Arc(l.BA).Capacity * maxUtil); v > u {
			u = v
		}
		util[l.ID] = u
	}
	return criticality.Scores(util, len(sorted), func(i int, yield func(link int)) {
		d := sorted[i]
		p, ok := r.Paths[[2]topo.NodeID{d.O, d.D}]
		if !ok {
			return
		}
		for _, aid := range p.Arcs {
			yield(int(t.Arc(aid).Link))
		}
	}, 4)
}

// hopelessLinks flags switch-off candidates that can never be accepted
// in any later state of the descent — the dominance pruning of the
// warm path: a bridge of the active subgraph that carries traffic
// separates the endpoints of every demand routed through it, so
// removing it disconnects those pairs; and since the descent only
// shrinks the set, a bridge stays a bridge. Bridges are found with one
// iterative Tarjan DFS over the active subgraph.
func hopelessLinks(t *topo.Topology, active *topo.ActiveSet, r *Routing) []bool {
	nodeOn := func(id topo.NodeID) bool {
		if t.Node(id).Kind == topo.KindHost {
			return true
		}
		return active.Router[id]
	}
	n := t.NumNodes()
	disc := make([]int, n)
	low := make([]int, n)
	parentLink := make([]topo.LinkID, n)
	out := make([]bool, t.NumLinks())
	timer := 0
	type frame struct {
		node   topo.NodeID
		arcIdx int
	}
	var stack []frame
	for _, root := range t.Nodes() {
		if disc[root.ID] != 0 || !nodeOn(root.ID) {
			continue
		}
		timer++
		disc[root.ID], low[root.ID] = timer, timer
		parentLink[root.ID] = -1
		stack = append(stack[:0], frame{node: root.ID})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.node
			arcs := t.Out(u)
			if f.arcIdx < len(arcs) {
				a := t.Arc(arcs[f.arcIdx])
				f.arcIdx++
				if !active.Link[a.Link] || !nodeOn(a.To) || a.Link == parentLink[u] {
					continue
				}
				if disc[a.To] == 0 {
					timer++
					disc[a.To], low[a.To] = timer, timer
					parentLink[a.To] = a.Link
					stack = append(stack, frame{node: a.To})
				} else if disc[a.To] < low[u] {
					low[u] = disc[a.To]
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				continue
			}
			p := stack[len(stack)-1].node
			if low[u] < low[p] {
				low[p] = low[u]
			}
			if low[u] > disc[p] {
				// parentLink[u] is a bridge; hopeless iff it carries flow.
				l := t.Link(parentLink[u])
				if r.Load[l.AB] > 0 || r.Load[l.BA] > 0 {
					out[l.ID] = true
				}
			}
		}
	}
	return out
}

// warmSubset attempts the warm-started descent: repair the seed to
// feasibility, order candidates by ascending energy-criticality, prune
// hopeless bridges, descend once, and accept iff the result's power is
// within the seed's tolerance. When repair alone already grows the
// seed past the tolerance the descent is skipped outright — its cost
// rivals a cold search (which at least runs its orderings in parallel)
// while its starting point has provably lost the seed's benefit.
// ok=false sends the caller to the cold restart pool (unusable seed,
// Check rejection, or tolerance miss); err is only a context
// cancellation.
func warmSubset(ctx context.Context, t *topo.Topology, sorted []traffic.Demand,
	m power.Model, opts OptimalOpts) (*topo.ActiveSet, *Routing, bool, error) {

	hint := opts.Warm.Active.Clone()
	if opts.KeepOn != nil {
		hint.Union(opts.KeepOn)
	}
	hint.EnforceInvariants(t)
	seedWatts := power.NetworkWatts(t, m, hint)

	s := newSubsetSearch(t, sorted, m, opts)
	ws := spf.NewWorkspace()
	routing, fresh, err := s.repair(hint, ws)
	if err != nil {
		return nil, nil, false, ctx.Err()
	}
	if s.check != nil && s.check(routing) != nil {
		return nil, nil, false, nil
	}
	if tol := opts.Warm.tolerance(); tol >= 0 && !fresh &&
		power.NetworkWatts(t, m, hint) > (1+tol)*seedWatts+1e-9 {
		// Feasibility repair had to grow the seed past the acceptance
		// gate: the demands drifted too far for the seed to describe
		// them, and a descent from the bloated hint is a near-cold
		// search whose result would start from — and rarely recover
		// below — the tolerance it already busted. Bail before paying
		// for it and let the cold restart pool (which runs its
		// orderings concurrently) handle the stage.
		return nil, nil, false, nil
	}

	scores := criticalityScores(t, sorted, routing, s.ro.MaxUtil)
	hopeless := hopelessLinks(t, hint, routing)
	all := s.candidates()
	cands := all[:0]
	for _, c := range all {
		if c.isRouter {
			if !hint.Router[c.router] {
				continue
			}
			for _, aid := range t.Out(c.router) {
				a := t.Arc(aid)
				if hint.Link[a.Link] {
					c.score += scores[a.Link]
				}
			}
		} else {
			if !hint.Link[c.link] || hopeless[c.link] {
				continue
			}
			c.score = scores[c.link]
		}
		cands = append(cands, c)
	}
	// Least critical first; ties drop the most power-hungry element
	// first, then routers before links, then by ID — fully
	// deterministic regardless of GOMAXPROCS.
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		if cands[i].watts != cands[j].watts {
			return cands[i].watts > cands[j].watts
		}
		if cands[i].isRouter != cands[j].isRouter {
			return cands[i].isRouter
		}
		if cands[i].isRouter {
			return cands[i].router < cands[j].router
		}
		return cands[i].link < cands[j].link
	})

	active, r, err := s.descend(ctx, hint, cands, ws, routing, fresh)
	if err != nil {
		return nil, nil, false, err
	}
	warmWatts := power.NetworkWatts(t, m, active)
	if tol := opts.Warm.tolerance(); tol >= 0 && warmWatts > (1+tol)*seedWatts+1e-9 {
		return nil, nil, false, nil
	}
	return active, r, true, nil
}
