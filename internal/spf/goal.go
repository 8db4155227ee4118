// Goal-directed point-to-point solvers: ALT A* over landmark lower
// bounds and bidirectional Dijkstra, both *certified*. The repository
// pins whole-plan fingerprints, and the reference engine's choice among
// equal-cost paths is a heap artifact no reordered search can
// reproduce, so neither solver tries to: each one detects — during its
// own run — every situation in which an equal-cost tie could have
// influenced the answer, and reports itself uncertified, upon which
// ShortestPath re-runs the query through the reference Dijkstra.
// A certified result is therefore provably the byte-identical answer
// the reference engine would have produced; an uncertified attempt
// costs time but can never change an output. The proof takes for
// granted that both solvers see the reference's graph — the same arcs
// admitted at the same weights — which holds because every loop here
// and Workspace.run relax through Options.admit.
//
// The certification rules:
//
//   - ALT A* (forward, landmark heuristic): runs with key g+h (h
//     consistent, shrunk by hScale), does not stop at the target but
//     drains the heap until the top key exceeds dist(target)+slack,
//     and aborts on any relaxation that lands exactly on an existing
//     label (nd == dist). Consistency makes every tight parent of a
//     node inside the search ellipse itself part of the ellipse, so
//     all tie-making relaxations are performed before the cutoff: zero
//     observed equalities ⇒ every label and predecessor is forced ⇒
//     identical to the reference. Inf/NaN landmark entries are skipped
//     and host targets are bounded through their attachment routers,
//     keeping h admissible under the host-termination path semantics.
//
//   - Bidirectional Dijkstra: forward search from the origin, backward
//     search over t.In from the destination — one expansion body
//     serving whichever side has the smaller top key — stop when
//     topF+topB > μ+slack. Certification additionally requires that
//     no heap emptied before the stop rule fired and that every meeting
//     node whose two-sided distance sum is within slack of μ
//     reconstructs to the same arc sequence. This is deliberately
//     conservative; the DiffPathEngine oracle in internal/verify is
//     the ground truth that the rule set is tight enough on the
//     corpus.
//
// Adaptive bailout: tie-heavy topologies (tori, rings, fat-trees with
// uniform latencies) fail certification on most queries. Per-workspace
// counters watch the failure rate and stop attempting goal-directed
// runs on a topology where more than a quarter of attempts have failed,
// so the worst case degrades to a small constant overhead over the
// reference engine.
package spf

import (
	"fmt"
	"math"

	"response/internal/topo"
)

// Engine selects the point-to-point shortest-path solver.
type Engine uint8

const (
	// EngineReference is the seed engine: early-exit Dijkstra in the
	// exact heap order pinned by the plan fingerprints. The zero value,
	// so existing callers are untouched.
	EngineReference Engine = iota
	// EngineALT is certified A* with landmark (ALT) lower bounds.
	// Requires a latency-bounded weight (Options.LatencyBound); falls
	// back to the reference engine otherwise.
	EngineALT
	// EngineBidirectional is certified bidirectional Dijkstra. Valid
	// for any weight function.
	EngineBidirectional
)

// String returns the engine's configuration name.
func (e Engine) String() string {
	switch e {
	case EngineALT:
		return "alt"
	case EngineBidirectional:
		return "bidirectional"
	default:
		return "reference"
	}
}

// ParseEngine maps a configuration name to an Engine.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "reference":
		return EngineReference, nil
	case "alt":
		return EngineALT, nil
	case "bidirectional", "bidi":
		return EngineBidirectional, nil
	}
	return EngineReference, fmt.Errorf("spf: unknown path engine %q", name)
}

// goalSlack is the relative float slack used by the certified solvers:
// searches drain past their provisional optimum by slack(d) before
// concluding, absorbing rounding noise in the heuristic and in
// differently-associated weight sums.
func goalSlack(d float64) float64 { return 1e-9 * (1 + d) }

// goalAllowed implements the adaptive bailout: attempt goal-directed
// solves until the observed certification failure rate on this
// topology exceeds 25% (with a 16-query warm-up).
func (ws *Workspace) goalAllowed(t *topo.Topology) bool {
	if ws.goalTopo != t {
		ws.goalTopo = t
		ws.goalTries, ws.goalFails = 0, 0
	}
	return ws.goalTries < 16 || ws.goalFails*4 <= ws.goalTries
}

// ensureLM resolves the landmark table for t through the per-workspace
// pointer cache (registry lookup only on topology change).
func (ws *Workspace) ensureLM(t *topo.Topology) *Landmarks {
	if ws.lmTopo != t {
		ws.lm = LandmarksFor(t)
		ws.lmTopo = t
	}
	return ws.lm
}

// latencyBounded reports whether landmark latency bounds are admissible
// under o's weight: either declared by the caller, or the default
// weight (which is exactly latency).
func (o Options) latencyBounded() bool { return o.LatencyBound || o.Weight == nil }

// targetBound returns an admissible, consistent lower bound on the
// latency distance from v to d. Non-host targets use the landmark
// triangle inequalities directly; host targets (which paths may not
// transit, breaking the triangle inequality through them) are bounded
// through their attachment routers plus the final arc's latency.
func targetBound(t *topo.Topology, lm *Landmarks, v, d topo.NodeID) float64 {
	if v == d {
		return 0
	}
	if t.Node(d).Kind != topo.KindHost {
		return lm.HBound(v, d)
	}
	best := math.Inf(1)
	for _, aid := range t.In(d) {
		a := t.Arc(aid)
		if t.Node(a.From).Kind == topo.KindHost {
			continue
		}
		if b := lm.HBound(v, a.From) + a.Latency; b < best {
			best = b
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// hFor memoizes targetBound per node for the current h-epoch. The
// heuristic depends only on the landmark table and the target — not on
// the query's active set, avoid set or weights — so the cache survives
// across queries as long as both stay the same. Yen's spur searches,
// which all share one target, hit it almost every time.
func (ws *Workspace) hFor(t *topo.Topology, lm *Landmarks, v, d topo.NodeID) float64 {
	if ws.hstamp[v] == ws.hepoch {
		return ws.hval[v]
	}
	h := targetBound(t, lm, v, d)
	ws.hstamp[v] = ws.hepoch
	ws.hval[v] = h
	return h
}

// hBegin sizes the h-cache and starts a new h-epoch iff the (landmark
// table, target) pair changed since the previous query.
func (ws *Workspace) hBegin(lm *Landmarks, d topo.NodeID, n int) {
	if len(ws.hstamp) < n {
		ws.hstamp = make([]uint64, n)
		ws.hval = make([]float64, n)
	}
	if ws.htgt != d || ws.hlm != lm || ws.hepoch == 0 {
		ws.hepoch++
		ws.htgt = d
		ws.hlm = lm
	}
}

// goalPath dispatches a point-to-point query to the selected certified
// solver. The third return is the certification verdict: when false the
// first two returns are meaningless and the caller must re-run the
// query through the reference engine.
func (ws *Workspace) goalPath(t *topo.Topology, o, d topo.NodeID, opts Options) (topo.Path, bool, bool) {
	switch opts.Engine {
	case EngineALT:
		if !opts.latencyBounded() {
			return topo.Path{}, false, false
		}
		return ws.altPath(t, o, d, opts)
	case EngineBidirectional:
		return ws.bidiPath(t, o, d, opts)
	}
	return topo.Path{}, false, false
}

// altPath is the certified ALT A* solver. See the package comment at
// the top of this file for the certification argument.
func (ws *Workspace) altPath(t *topo.Topology, o, d topo.NodeID, opts Options) (topo.Path, bool, bool) {
	lm := ws.ensureLM(t)
	if lm.Count() == 0 {
		return topo.Path{}, false, false
	}
	n := t.NumNodes()
	ws.begin(n)
	ws.src = o
	ws.hBegin(lm, d, n)
	nodes := t.Nodes()
	arcs := t.Arcs()
	if opts.routerOff(nodes, o) {
		return topo.Path{}, false, true // source powered off: certified no-path
	}
	ws.touch(o, 0, -1)
	ws.push(o, ws.hFor(t, lm, o, d))
	dStar := math.Inf(1)
	slack := 0.0
	for len(ws.heap) > 0 {
		if ws.heap[0].dist > dStar+slack {
			break // ellipse drained: every label that matters is final
		}
		u := ws.pop().node
		if ws.done[u] {
			continue
		}
		ws.done[u] = true
		if u == d {
			dStar = ws.dist[u]
			slack = goalSlack(dStar)
			continue // target settled; keep draining to certify
		}
		if nodes[u].Kind == topo.KindHost && u != o {
			continue // hosts terminate paths
		}
		du := ws.dist[u]
		for _, aid := range t.Out(u) {
			a := &arcs[aid]
			to := a.To
			wt, ok := opts.admit(nodes, a, to)
			if !ok {
				continue
			}
			nd := du + wt
			dt := ws.distAt(to)
			if nd == dt {
				// An exact equal-cost tie. The reference resolves it by
				// heap order; ties into dead-end hosts can never reach
				// the output, every other one voids the certificate.
				if to == d || nodes[to].Kind != topo.KindHost {
					return topo.Path{}, false, false
				}
				continue
			}
			if nd < dt {
				ws.touch(to, nd, aid)
				ws.push(to, nd+ws.hFor(t, lm, to, d))
			}
		}
	}
	if math.IsInf(dStar, 1) {
		// Heap drained without settling the target: certified no-path.
		return topo.Path{}, false, true
	}
	p, ok := ws.pathTo(t, d)
	return p, ok, true
}

// bidiPath is the certified bidirectional Dijkstra solver. See the
// package comment at the top of this file for the certification rules.
func (ws *Workspace) bidiPath(t *topo.Topology, o, d topo.NodeID, opts Options) (topo.Path, bool, bool) {
	n := t.NumNodes()
	fwd, bwd := &ws.labels, &ws.bwd
	fwd.begin(n)
	bwd.begin(n)
	ws.src = o
	ws.meet = ws.meet[:0]
	nodes := t.Nodes()
	arcs := t.Arcs()
	// The reference checks the origin's power state up front and the
	// destination's when relaxing its final arc; both sides of a
	// bidirectional search need them as start conditions.
	if opts.routerOff(nodes, o) || opts.routerOff(nodes, d) {
		return topo.Path{}, false, true
	}
	fwd.touch(o, 0, -1)
	fwd.push(o, 0)
	bwd.touch(d, 0, -1)
	bwd.push(d, 0)
	mu := math.Inf(1)
	slack := 0.0
	certified := true
	stopped := false
	for certified {
		// Drop finalized (stale) heads so the tops are live keys.
		for len(fwd.heap) > 0 && fwd.done[fwd.heap[0].node] {
			fwd.pop()
		}
		for len(bwd.heap) > 0 && bwd.done[bwd.heap[0].node] {
			bwd.pop()
		}
		if len(fwd.heap) == 0 || len(bwd.heap) == 0 {
			break
		}
		if fwd.heap[0].dist+bwd.heap[0].dist > mu+slack {
			stopped = true
			break
		}
		// Expand the side with the smaller top key (forward on a draw):
		// the forward search relaxes out-arcs from o toward d, the
		// backward one in-arcs from d toward o, through one body.
		side, other, from, goal, reverse := fwd, bwd, o, d, false
		if bwd.heap[0].dist < fwd.heap[0].dist {
			side, other, from, goal, reverse = bwd, fwd, d, o, true
		}
		u := side.pop().node
		side.done[u] = true
		if nodes[u].Kind == topo.KindHost && u != from {
			continue // hosts terminate paths
		}
		du := side.dist[u]
		adj := t.Out(u)
		if reverse {
			adj = t.In(u)
		}
		for _, aid := range adj {
			a := &arcs[aid]
			v := a.To
			if reverse {
				v = a.From
			}
			wt, ok := opts.admit(nodes, a, v)
			if !ok {
				continue
			}
			nd := du + wt
			dt := side.distAt(v)
			if nd == dt {
				if v == goal || nodes[v].Kind != topo.KindHost {
					certified = false
					break
				}
				continue
			}
			if nd < dt {
				if other.labeled(v) {
					if !side.labeled(v) {
						ws.meet = append(ws.meet, v)
					}
					if s := nd + other.dist[v]; s < mu {
						mu = s
						slack = goalSlack(mu)
					}
				}
				side.touch(v, nd, aid)
				side.push(v, nd)
			}
		}
	}
	if !certified {
		return topo.Path{}, false, false
	}
	if math.IsInf(mu, 1) {
		// A heap drained with the frontiers never meeting: one side
		// exhausted its reachable set, so there is no path at all.
		return topo.Path{}, false, true
	}
	if !stopped {
		// A heap drained after the frontiers met but before the stop
		// rule fired; the usual invariants don't cover this corner, so
		// don't certify it.
		return topo.Path{}, false, false
	}
	// Certify uniqueness through the meeting set: every doubly-labeled
	// node whose two-sided sum is within slack of μ must reconstruct to
	// the same arc sequence.
	var best []topo.ArcID
	have := false
	for _, x := range ws.meet {
		if fwd.dist[x]+bwd.dist[x] > mu+slack {
			continue
		}
		head, ok := ws.pathTo(t, x)
		if !ok {
			return topo.Path{}, false, false
		}
		full := head.Arcs
		for v := x; v != d; {
			aid := bwd.prev[v]
			if aid < 0 {
				return topo.Path{}, false, false
			}
			full = append(full, aid)
			v = arcs[aid].To
		}
		if !have {
			best, have = full, true
		} else if !sameArcs(best, full) {
			return topo.Path{}, false, false
		}
	}
	if !have {
		return topo.Path{}, false, false
	}
	return topo.Path{Arcs: best}, true, true
}
