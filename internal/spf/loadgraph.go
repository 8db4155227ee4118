package spf

import (
	"math"

	"response/internal/topo"
)

// LoadGraph is the compiled form of everything a load-aware routing
// pass holds constant: per node, the out-arcs that survive the pass's
// Active set and Avoid predicate, in t.Out order, each with its base
// weight and effective capacity (Capacity × MaxUtil) laid out
// contiguously. The feasibility router (mcf) issues hundreds of
// thousands of single-path queries per plan whose predicates and base
// weights never change within a pass; compiling them once turns the
// per-relaxation cost from two closure calls, two 64-byte arc copies
// and two ActiveSet lookups into one sequential 24-byte read.
//
// A LoadGraph is a snapshot: it must be recompiled whenever the active
// set, the avoid predicate or the base weight it was built from
// changes. Load, demand rate and spreading penalty are not part of it —
// they are arguments of each ShortestPathLoad query. The zero value is
// ready for Compile, which reuses the graph's buffers; every Workspace
// owns one (Workspace.LoadGraph) so the planner's passes allocate
// nothing for it after warm-up.
type LoadGraph struct {
	off  []int32 // per node: its arcs are arcs[off[u]:off[u+1]]
	host []bool  // per node: hosts terminate paths
	arcs []loadArc
}

// loadArc is one surviving arc of a compiled pass.
type loadArc struct {
	id   int32   // topo.ArcID
	to   int32   // topo.NodeID
	base float64 // base weight (Weight(a), default latency)
	capa float64 // Capacity × MaxUtil
}

// Compile rebuilds g for one pass over t: active (nil = all on), avoid
// (nil = none) and weight (nil = latency) are evaluated once per arc,
// in node then t.Out order, with avoid consulted before weight exactly
// as the generic relaxation loop does — so both must be pure for as
// long as g is used. A powered-off router keeps no out-arcs: no arc
// leads into it, so this only matters when it is a query's source,
// where the generic solver reports "no path" and an empty arc list
// yields the same verdict.
func (g *LoadGraph) Compile(t *topo.Topology, active *topo.ActiveSet,
	avoid func(a topo.Arc) bool, weight WeightFunc, maxUtil float64) {

	nodes := t.Nodes()
	arcs := t.Arcs()
	n := len(nodes)
	if cap(g.off) < n+1 {
		g.off = make([]int32, n+1)
		g.host = make([]bool, n)
	}
	g.off = g.off[:n+1]
	g.host = g.host[:n]
	if cap(g.arcs) < len(arcs) {
		g.arcs = make([]loadArc, 0, len(arcs)) // every arc may survive
	}
	g.arcs = g.arcs[:0]
	for u := range nodes {
		g.off[u] = int32(len(g.arcs))
		host := nodes[u].Kind == topo.KindHost
		g.host[u] = host
		if active != nil && !host && !active.Router[u] {
			continue
		}
		for _, aid := range t.Out(topo.NodeID(u)) {
			a := &arcs[aid]
			if active != nil {
				if !active.Link[a.Link] {
					continue
				}
				if nodes[a.To].Kind != topo.KindHost && !active.Router[a.To] {
					continue
				}
			}
			if avoid != nil && avoid(*a) {
				continue
			}
			base := a.Latency
			if weight != nil {
				base = weight(*a)
			}
			g.arcs = append(g.arcs, loadArc{
				id: int32(aid), to: int32(a.To), base: base, capa: a.Capacity * maxUtil,
			})
		}
	}
	g.off[n] = int32(len(g.arcs))
}

// LoadGraph returns the workspace-owned graph buffer. There is one per
// workspace: compiling it again invalidates the previous contents.
func (ws *Workspace) LoadGraph() *LoadGraph { return &ws.lg }

// ShortestPathLoad answers one load-aware routing query over a compiled
// pass graph: the least-weight o→d path where an arc carrying load[id]
// is pruned when placing rate more on it would exceed its effective
// capacity, and otherwise weighs base × (1 + penalty × utilization).
//
// It is the generic early-exit Dijkstra (Workspace.ShortestPath under
// the reference engine) specialised to that weight: same heap, same
// relaxation order, the same float operations in the same order, so
// every equal-cost tie resolves identically and the returned arc
// sequence is byte-equal to the closure form's —
// TestLoadKernelMatchesReference holds the two against each other.
func (ws *Workspace) ShortestPathLoad(t *topo.Topology, g *LoadGraph, o, d topo.NodeID,
	load []float64, rate, penalty float64) (topo.Path, bool) {

	if o == d {
		return topo.Path{}, true
	}
	ws.begin(len(g.host))
	ws.src = o
	ws.touch(o, 0, -1)
	ws.push(o, 0)
	for len(ws.heap) > 0 {
		it := ws.pop()
		u := it.node
		if ws.done[u] {
			continue
		}
		ws.done[u] = true
		if u == d {
			break
		}
		if g.host[u] && u != o {
			continue // hosts terminate paths
		}
		du := ws.dist[u]
		out := g.arcs[g.off[u]:g.off[u+1]]
		for i := range out {
			a := &out[i]
			l := load[a.id]
			if l+rate > a.capa+1e-9 {
				continue // would overflow: prune
			}
			util := l / a.capa
			// The conversion pins the product's rounding: without it an
			// FMA-capable target may fuse it into the du+wt below, which
			// the closure form (weight returned from a call) never does.
			wt := float64(a.base * (1 + penalty*util))
			if math.IsInf(wt, 1) || wt < 0 {
				continue
			}
			v := topo.NodeID(a.to)
			if nd := du + wt; nd < ws.distAt(v) {
				ws.touch(v, nd, topo.ArcID(a.id))
				ws.push(v, nd)
			}
		}
	}
	return ws.pathTo(t, d)
}
