package spf

import (
	"math"
	"sync"

	"response/internal/topo"
)

// labels is the label set of one Dijkstra search: tentative distance,
// predecessor arc and finalized flag per node, plus an index-based
// binary min-heap of (node, key) entries. Arrays are epoch-stamped: a
// slot is valid only when its stamp matches the current epoch, so no
// O(n) clearing happens between runs and repeated searches allocate
// nothing.
type labels struct {
	epoch uint64
	stamp []uint64
	dist  []float64
	prev  []topo.ArcID // arc the label came over: into the node forward, out of it backward
	done  []bool
	heap  []heapEntry
}

// Workspace holds the scratch state of the package's searches: the
// forward label set (embedded, so ws.dist, ws.push, … are the forward
// search's), a second one for the backward half of bidirectional
// queries, and the buffers of the load-aware kernel and the
// goal-directed engines.
//
// A Workspace is not safe for concurrent use; create one per goroutine
// (the planner's parallel restarts each own one). The package-level
// search functions draw from an internal pool, so casual callers keep
// the old allocation-free-enough API without managing workspaces.
type Workspace struct {
	labels
	scratch []topo.ArcID // path reversal buffer
	src     topo.NodeID

	// lg is the compiled pass graph of the load-aware kernel (see
	// loadgraph.go); its buffers live here so they amortise across the
	// passes a workspace serves.
	lg LoadGraph

	// Goal-directed state (see goal.go). The landmark table is cached
	// per topology pointer; the h-cache memoizes HBound per node per
	// query epoch; bwd and meet serve bidirectional searches. All
	// lazily allocated: a workspace used only through the reference
	// engine never touches them.
	lmTopo *topo.Topology
	lm     *Landmarks
	hval   []float64
	hstamp []uint64
	htgt   topo.NodeID
	hlm    *Landmarks
	hepoch uint64

	bwd  labels        // backward search from the target
	meet []topo.NodeID // nodes labeled by both searches, each once

	// Adaptive bailout counters: when the certified goal-directed
	// solver keeps falling back (tie-heavy topology), stop paying for
	// the failed attempts. Reset when the workspace changes topology.
	goalTopo  *topo.Topology
	goalTries int
	goalFails int
}

// heapEntry is one pending heap slot. Entries are pushed eagerly on
// every relaxation (lazy deletion: stale entries are skipped when their
// node is already finalized), which preserves the exact pop order of
// the previous container/heap implementation while eliminating its
// per-push *pqItem allocation.
type heapEntry struct {
	node topo.NodeID
	dist float64
}

// NewWorkspace returns an empty workspace; it grows to fit the first
// topology it is used on.
func NewWorkspace() *Workspace { return &Workspace{} }

var wsPool = sync.Pool{New: func() interface{} { return NewWorkspace() }}

// begin starts a new run over n nodes: bump the epoch, size the arrays,
// clear the heap. No per-node clearing is done.
func (l *labels) begin(n int) {
	if len(l.stamp) < n {
		l.stamp = make([]uint64, n)
		l.dist = make([]float64, n)
		l.prev = make([]topo.ArcID, n)
		l.done = make([]bool, n)
	}
	l.epoch++
	l.heap = l.heap[:0]
}

// labeled reports whether u carries a label from the current run.
func (l *labels) labeled(u topo.NodeID) bool { return l.stamp[u] == l.epoch }

// distAt returns the tentative distance of u, +Inf when untouched.
func (l *labels) distAt(u topo.NodeID) float64 {
	if l.labeled(u) {
		return l.dist[u]
	}
	return math.Inf(1)
}

// touch records a tentative (dist, prev) label for u in this epoch.
func (l *labels) touch(u topo.NodeID, d float64, via topo.ArcID) {
	l.stamp[u] = l.epoch
	l.dist[u] = d
	l.prev[u] = via
	l.done[u] = false
}

// push/pop implement the container/heap binary-heap protocol
// (identical sift rules, Less = strict dist comparison) over inline
// entries, so equal-distance ties resolve exactly as before.
func (l *labels) push(n topo.NodeID, d float64) {
	l.heap = append(l.heap, heapEntry{node: n, dist: d})
	// Sift up.
	h := l.heap
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (l *labels) pop() heapEntry {
	h := l.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift down within h[:n].
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	l.heap = h[:n]
	return e
}

// run executes Dijkstra from src under opts. When target is a valid
// node ID, the search stops as soon as target is finalized (its label
// is exact at that point); pass -1 to label the whole graph.
//
// With reverse set the search runs over the reversed graph (t.In
// instead of t.Out), leaving dist[v] = shortest distance from v to src
// under forward path semantics: host tails are labeled but never
// expanded, mirroring the forward rule that hosts terminate paths. The
// backward landmark tables are built this way.
func (ws *Workspace) run(t *topo.Topology, src topo.NodeID, opts Options, target topo.NodeID, reverse bool) {
	ws.begin(t.NumNodes())
	ws.src = src
	nodes := t.Nodes()
	arcs := t.Arcs()
	if opts.routerOff(nodes, src) {
		return
	}
	ws.touch(src, 0, -1)
	ws.push(src, 0)
	for len(ws.heap) > 0 {
		it := ws.pop()
		u := it.node
		if ws.done[u] {
			continue
		}
		ws.done[u] = true
		if u == target {
			return
		}
		if nodes[u].Kind == topo.KindHost && u != src {
			continue // hosts terminate paths
		}
		du := ws.dist[u]
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
			if nd := du + wt; nd < ws.distAt(v) {
				ws.touch(v, nd, aid)
				ws.push(v, nd)
			}
		}
	}
}

// pathTo materializes the path from the last run's source to dst. The
// single allocation is the returned arc slice, sized exactly.
func (ws *Workspace) pathTo(t *topo.Topology, dst topo.NodeID) (topo.Path, bool) {
	if !ws.labeled(dst) || math.IsInf(ws.dist[dst], 1) {
		return topo.Path{}, false
	}
	rev := ws.scratch[:0]
	for n := dst; n != ws.src; {
		aid := ws.prev[n]
		if aid < 0 {
			ws.scratch = rev
			return topo.Path{}, false
		}
		rev = append(rev, aid)
		n = t.Arc(aid).From
	}
	ws.scratch = rev
	arcs := make([]topo.ArcID, len(rev))
	for i := range arcs {
		arcs[i] = rev[len(rev)-1-i]
	}
	return topo.Path{Arcs: arcs}, true
}

// ShortestPath is ShortestPath threaded through the workspace: an
// early-exit Dijkstra whose only allocation is the returned path.
//
// When opts.Engine selects a goal-directed engine, the query first runs
// through the certified ALT A* / bidirectional solver (goal.go); if
// that run certifies itself tie-free its result is returned directly —
// provably identical to the reference engine's — and otherwise the
// reference Dijkstra below re-answers the query, so the engine choice
// can never change an output.
func (ws *Workspace) ShortestPath(t *topo.Topology, o, d topo.NodeID, opts Options) (topo.Path, bool) {
	if o == d {
		return topo.Path{}, true
	}
	if opts.Engine != EngineReference && ws.goalAllowed(t) {
		if p, ok, certified := ws.goalPath(t, o, d, opts); certified {
			ws.goalTries++
			return p, ok
		}
		ws.goalTries++
		ws.goalFails++
	}
	ws.run(t, o, opts, d, false)
	return ws.pathTo(t, d)
}

// ShortestTree runs a full Dijkstra from src and leaves the labels in
// the workspace; read them through Dist and PathTo until the next run.
func (ws *Workspace) ShortestTree(t *topo.Topology, src topo.NodeID, opts Options) {
	ws.run(t, src, opts, -1, false)
}

// Dist returns the distance label of n from the last run (+Inf when
// unreachable or not yet labeled).
func (ws *Workspace) Dist(n topo.NodeID) float64 { return ws.distAt(n) }

// PathTo extracts the path from the last run's source to dst.
func (ws *Workspace) PathTo(t *topo.Topology, dst topo.NodeID) (topo.Path, bool) {
	return ws.pathTo(t, dst)
}

// tree materializes the workspace labels into a standalone Tree.
func (ws *Workspace) tree(t *topo.Topology) Tree {
	n := t.NumNodes()
	tr := Tree{
		Source:  ws.src,
		Dist:    make([]float64, n),
		PrevArc: make([]topo.ArcID, n),
	}
	for i := 0; i < n; i++ {
		if ws.labeled(topo.NodeID(i)) {
			tr.Dist[i] = ws.dist[i]
			tr.PrevArc[i] = ws.prev[i]
		} else {
			tr.Dist[i] = math.Inf(1)
			tr.PrevArc[i] = -1
		}
	}
	return tr
}
