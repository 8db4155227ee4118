// Package spf is the shortest-path substrate: Dijkstra over pluggable
// arc weights, Yen's K-shortest paths, and OSPF-InvCap weights (the
// paper's Cisco-recommended baseline: link weight = inverse capacity).
//
// All searches refuse to transit through hosts (hosts may only be path
// endpoints) and can be restricted to the powered subgraph via an
// ActiveSet. Which arcs a search may relax, and at what weight, is one
// rule — Options.admit — called by every relaxation loop in the
// package, forward or backward, reference or goal-directed.
//
// Searches run over a reusable Workspace, whose label set (the labels
// type: epoch-stamped arrays plus an inline binary heap) exists once
// for the forward search and once for the backward half of
// bidirectional queries, so the hot planning loops in mcf and core
// perform no per-search allocations; the package-level functions below
// draw workspaces from a pool for callers that don't manage their own.
//
// The feasibility router's load-aware queries — the bulk of a plan —
// run a specialised kernel over a compiled pass graph instead of the
// generic loop (LoadGraph, Workspace.ShortestPathLoad in loadgraph.go):
// same heap, same relaxation order, same float operations, so ties
// break identically; only the per-arc predicate and weight dispatch is
// hoisted out — LoadGraph.Compile applies the admission rule ahead of
// time, the one place that restates it.
//
// Point-to-point queries can additionally run through a goal-directed
// engine (Options.Engine: EngineALT over cached landmark lower bounds,
// or EngineBidirectional). Both are certified-exact: a query either
// proves its answer byte-identical to the reference engine's — same
// arcs, same tie choices — or transparently falls back to it, so the
// engine selection never changes an output, only how fast it is
// computed. Yen's algorithm adds landmark-based dominance pruning of
// spur queries under the same contract. See goal.go for the
// certification argument and landmarks.go for landmark selection.
package spf

import (
	"math"
	"sort"

	"response/internal/topo"
)

// WeightFunc assigns a non-negative routing weight to an arc. Return
// math.Inf(1) to exclude the arc entirely.
type WeightFunc func(a topo.Arc) float64

// Latency weights arcs by propagation delay: shortest-delay routing.
func Latency() WeightFunc {
	return func(a topo.Arc) float64 { return a.Latency }
}

// InvCap implements the Cisco-recommended OSPF setting (the paper's
// OSPF-InvCap baseline): link weight inversely proportional to
// capacity, normalized to a 100 Mb/s reference so weights are O(1).
func InvCap() WeightFunc {
	const ref = 100 * topo.Mbps
	return func(a topo.Arc) float64 { return ref / a.Capacity }
}

// Options restricts and parameterizes a search.
type Options struct {
	// Weight is the arc weight (default Latency).
	Weight WeightFunc
	// Active, when non-nil, restricts the search to powered elements.
	Active *topo.ActiveSet
	// Avoid, when non-nil, excludes arcs for which it returns true
	// (used e.g. to skip high-stress links or failed elements).
	Avoid func(a topo.Arc) bool
	// Engine selects the point-to-point solver (see goal.go). The zero
	// value is the reference engine; the goal-directed engines are
	// certified-exact: they return a result only when it is provably
	// identical to the reference engine's and silently fall back
	// otherwise, so the choice can never change an output.
	Engine Engine
	// LatencyBound declares that Weight(a) ≥ a.Latency for every arc,
	// which makes the latency-based landmark lower bounds admissible
	// under Weight. Automatically true when Weight is nil (the default
	// weight is exactly latency); required for EngineALT and for Yen
	// dominance pruning to engage under a custom weight.
	LatencyBound bool
}

func (o Options) weight() WeightFunc {
	if o.Weight == nil {
		return Latency()
	}
	return o.Weight
}

// admit is the arc-admission rule, stated once for every search loop
// of the package: arc a, about to be relaxed toward its far end (a.To
// in a forward search, a.From in a backward one), may be used iff its
// link is powered, far is a host or a powered router, Avoid does not
// name it, and its weight (Weight, default latency) is a finite
// non-negative number. Avoid is consulted before Weight, so a weight
// function never sees an avoided arc. The certified engines'
// "byte-identical to the reference" claim rests on every loop
// admitting exactly the same arcs at the same weights.
//
// LoadGraph.Compile is the same rule evaluated ahead of time for a
// whole pass; it is deliberately not routed through here (the compiled
// kernel is the planner's hot path) and TestLoadKernelMatchesReference
// holds it to this form.
func (o *Options) admit(nodes []topo.Node, a *topo.Arc, far topo.NodeID) (float64, bool) {
	if o.Active != nil && !o.Active.Link[a.Link] {
		return 0, false
	}
	if o.routerOff(nodes, far) {
		return 0, false
	}
	if o.Avoid != nil && o.Avoid(*a) {
		return 0, false
	}
	wt := a.Latency
	if o.Weight != nil {
		wt = o.Weight(*a)
	}
	return wt, wt >= 0 && !math.IsInf(wt, 1)
}

// routerOff reports whether v is a router the active set has powered
// off: such a node can neither start a search nor be entered by one.
// Hosts carry no power state.
func (o *Options) routerOff(nodes []topo.Node, v topo.NodeID) bool {
	return o.Active != nil && nodes[v].Kind != topo.KindHost && !o.Active.Router[v]
}

// Tree is a single-source shortest-path tree.
type Tree struct {
	Source  topo.NodeID
	Dist    []float64    // per node; +Inf if unreachable
	PrevArc []topo.ArcID // arc used to reach each node; -1 at source/unreachable
}

// ShortestTree runs Dijkstra from src under opts. Hosts are never
// expanded unless they are the source, so paths cannot transit hosts.
func ShortestTree(t *topo.Topology, src topo.NodeID, opts Options) Tree {
	ws := wsPool.Get().(*Workspace)
	ws.run(t, src, opts, -1, false)
	tr := ws.tree(t)
	wsPool.Put(ws)
	return tr
}

// PathTo extracts the path from the tree's source to dst.
func (tr Tree) PathTo(t *topo.Topology, dst topo.NodeID) (topo.Path, bool) {
	if math.IsInf(tr.Dist[dst], 1) {
		return topo.Path{}, false
	}
	var rev []topo.ArcID
	for n := dst; n != tr.Source; {
		aid := tr.PrevArc[n]
		if aid < 0 {
			return topo.Path{}, false
		}
		rev = append(rev, aid)
		n = t.Arc(aid).From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return topo.Path{Arcs: rev}, true
}

// ShortestPath returns the least-weight path from o to d under opts.
func ShortestPath(t *topo.Topology, o, d topo.NodeID, opts Options) (topo.Path, bool) {
	if o == d {
		return topo.Path{}, true
	}
	ws := wsPool.Get().(*Workspace)
	p, ok := ws.ShortestPath(t, o, d, opts)
	wsPool.Put(ws)
	return p, ok
}

// PathWeight sums the option weight over a path's arcs.
func PathWeight(t *topo.Topology, p topo.Path, opts Options) float64 {
	w := opts.weight()
	var s float64
	for _, aid := range p.Arcs {
		s += w(t.Arc(aid))
	}
	return s
}

// kCand is one pending Yen candidate; seq breaks weight ties toward
// older candidates, keeping the selection deterministic.
type kCand struct {
	p   topo.Path
	w   float64
	seq int
}

// candHeap is a min-heap of candidates keyed (w, seq). It replaces the
// previous full re-sort of the candidate list on every iteration.
type candHeap []kCand

func (h candHeap) less(i, j int) bool {
	if h[i].w != h[j].w {
		return h[i].w < h[j].w
	}
	return h[i].seq < h[j].seq
}

func (h *candHeap) push(c kCand) {
	*h = append(*h, c)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *candHeap) pop() kCand {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	c := s[n]
	*h = s[:n]
	return c
}

// KShortest returns up to k loop-free shortest paths from o to d in
// non-decreasing weight order using Yen's algorithm.
func KShortest(t *topo.Topology, o, d topo.NodeID, k int, opts Options) []topo.Path {
	ws := wsPool.Get().(*Workspace)
	out := ws.KShortest(t, o, d, k, opts)
	wsPool.Put(ws)
	return out
}

// KShortest is Yen's algorithm threaded through the workspace: spur
// searches reuse the Dijkstra scratch state and the candidate pool is
// kept as a heap instead of being re-sorted every round.
func (ws *Workspace) KShortest(t *topo.Topology, o, d topo.NodeID, k int, opts Options) []topo.Path {
	if k <= 0 {
		return nil
	}
	first, ok := ws.ShortestPath(t, o, d, opts)
	if !ok || first.Empty() {
		return nil
	}
	paths := []topo.Path{first}
	var cands candHeap
	seq := 0
	seen := map[string]bool{first.Key(): true}

	// Dominance pruning (goal-directed engines only): a spur query whose
	// root weight plus an admissible lower bound on the spur's remaining
	// distance provably exceeds the r-th lightest pending candidate —
	// where r is the number of paths still to emit — can never produce a
	// popped candidate, so the query is skipped outright. The skipped
	// candidates are exactly ones the reference engine pushes but never
	// pops, and seq tie-breaking is relative, so the emitted paths and
	// their order are untouched.
	prune := opts.Engine != EngineReference && opts.latencyBounded()
	var lm *Landmarks
	if prune {
		lm = ws.ensureLM(t)
		prune = lm.Count() > 0
	}
	w := opts.weight()
	var boundScratch []float64

	for len(paths) < k {
		prev := paths[len(paths)-1]
		prevNodes := prev.Nodes(t)
		// The per-round prune bound. Candidates pushed later in the
		// round only tighten the true bound, so computing it once at
		// round start is conservative.
		bound := math.Inf(1)
		if prune {
			if r := k - len(paths); len(cands) >= r {
				boundScratch = boundScratch[:0]
				for j := range cands {
					boundScratch = append(boundScratch, cands[j].w)
				}
				sort.Float64s(boundScratch)
				bound = boundScratch[r-1]
			}
		}
		margin := 1e-9 * (1 + bound)
		rootW := 0.0
		// Spur from each node of the previous path.
		for i := 0; i < len(prev.Arcs); i++ {
			spurNode := prevNodes[i]
			if i > 0 {
				rootW += w(t.Arc(prev.Arcs[i-1]))
			}
			if !math.IsInf(bound, 1) && rootW+targetBound(t, lm, spurNode, d) > bound+margin {
				continue
			}
			rootArcs := prev.Arcs[:i]
			banned := map[topo.ArcID]bool{}
			// Ban the next arc of every accepted path sharing this root.
			for _, p := range paths {
				if len(p.Arcs) > i && sameArcs(p.Arcs[:i], rootArcs) {
					banned[p.Arcs[i]] = true
				}
			}
			// Ban revisiting root nodes.
			rootNodes := map[topo.NodeID]bool{}
			for _, n := range prevNodes[:i+1] {
				rootNodes[n] = true
			}
			delete(rootNodes, spurNode)
			sub := opts
			parentAvoid := opts.Avoid
			sub.Avoid = func(a topo.Arc) bool {
				if parentAvoid != nil && parentAvoid(a) {
					return true
				}
				return banned[a.ID] || rootNodes[a.To]
			}
			spur, ok := ws.ShortestPath(t, spurNode, d, sub)
			if !ok || spur.Empty() {
				continue
			}
			full := topo.Path{Arcs: append(append(make([]topo.ArcID, 0, i+len(spur.Arcs)), rootArcs...), spur.Arcs...)}
			if full.Check(t) != nil {
				continue
			}
			key := full.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			cands.push(kCand{p: full, w: PathWeight(t, full, opts), seq: seq})
			seq++
		}
		if len(cands) == 0 {
			break
		}
		paths = append(paths, cands.pop().p)
	}
	return paths
}

func sameArcs(a, b []topo.ArcID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
