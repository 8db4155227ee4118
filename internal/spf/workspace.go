package spf

import (
	"math"
	"sync"

	"response/internal/topo"
)

// Workspace holds the scratch state of a Dijkstra run — distance,
// predecessor, finalized flags, and an index-based binary min-heap of
// (node, dist) entries — so repeated searches allocate nothing. Arrays
// are epoch-stamped: a slot is valid only when its stamp matches the
// current epoch, so no O(n) clearing happens between runs.
//
// A Workspace is not safe for concurrent use; create one per goroutine
// (the planner's parallel restarts each own one). The package-level
// search functions draw from an internal pool, so casual callers keep
// the old allocation-free-enough API without managing workspaces.
type Workspace struct {
	epoch   uint64
	stamp   []uint64
	dist    []float64
	prev    []topo.ArcID
	done    []bool
	heap    []heapEntry
	scratch []topo.ArcID // path reversal buffer
	src     topo.NodeID

	// lg is the compiled pass graph of the load-aware kernel (see
	// loadgraph.go); its buffers live here so they amortise across the
	// passes a workspace serves.
	lg LoadGraph

	// Goal-directed state (see goal.go). The landmark table is cached
	// per topology pointer; the h-cache memoizes HBound per node per
	// query epoch; the b* arrays are the backward half of bidirectional
	// searches. All lazily allocated: a workspace used only through the
	// reference engine never touches them.
	lmTopo *topo.Topology
	lm     *Landmarks
	hval   []float64
	hstamp []uint64
	htgt   topo.NodeID
	hlm    *Landmarks
	hepoch uint64

	bstamp   []uint64
	bdist    []float64
	bprev    []topo.ArcID // arc leaving the node toward the target
	bdone    []bool
	bheap    []heapEntry
	btouched []topo.NodeID // nodes labeled by the backward search

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
func (ws *Workspace) begin(n int) {
	if len(ws.stamp) < n {
		ws.stamp = make([]uint64, n)
		ws.dist = make([]float64, n)
		ws.prev = make([]topo.ArcID, n)
		ws.done = make([]bool, n)
	}
	ws.epoch++
	ws.heap = ws.heap[:0]
}

// distAt returns the tentative distance of u, +Inf when untouched.
func (ws *Workspace) distAt(u topo.NodeID) float64 {
	if ws.stamp[u] == ws.epoch {
		return ws.dist[u]
	}
	return math.Inf(1)
}

// touch records a tentative (dist, prev) label for u in this epoch.
func (ws *Workspace) touch(u topo.NodeID, d float64, via topo.ArcID) {
	ws.stamp[u] = ws.epoch
	ws.dist[u] = d
	ws.prev[u] = via
	ws.done[u] = false
}

// push/pop/up/down implement the container/heap binary-heap protocol
// (identical sift rules, Less = strict dist comparison) over inline
// entries, so equal-distance ties resolve exactly as before.
func (ws *Workspace) push(n topo.NodeID, d float64) {
	ws.heap = append(ws.heap, heapEntry{node: n, dist: d})
	// Sift up.
	h := ws.heap
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

func (ws *Workspace) pop() heapEntry {
	h := ws.heap
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
	ws.heap = h[:n]
	return e
}

// run executes Dijkstra from src under opts. When target is a valid
// node ID, the search stops as soon as target is finalized (its label
// is exact at that point); pass -1 to label the whole graph.
//
// The relaxation loop indexes the arc and node tables directly and
// inlines Options.usable (same checks, same order) — this is the
// innermost loop of the whole planner, where per-arc struct copies and
// method dispatch are measurable.
func (ws *Workspace) run(t *topo.Topology, src topo.NodeID, opts Options, target topo.NodeID) {
	ws.begin(t.NumNodes())
	ws.src = src
	w := opts.weight()
	nodes := t.Nodes()
	arcs := t.Arcs()
	active := opts.Active
	avoid := opts.Avoid
	if active != nil && nodes[src].Kind != topo.KindHost && !active.Router[src] {
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
		for _, aid := range t.Out(u) {
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
			wt := w(*a)
			if math.IsInf(wt, 1) || wt < 0 {
				continue
			}
			if nd := du + wt; nd < ws.distAt(a.To) {
				ws.touch(a.To, nd, aid)
				ws.push(a.To, nd)
			}
		}
	}
}

// runReverse executes Dijkstra from src over the *reversed* graph
// (t.In instead of t.Out), leaving dist[v] = shortest distance from v
// to src under forward path semantics. Host tails are labeled but never
// expanded, mirroring the forward rule that hosts terminate paths; used
// to build the backward landmark tables.
func (ws *Workspace) runReverse(t *topo.Topology, src topo.NodeID, opts Options) {
	ws.begin(t.NumNodes())
	ws.src = src
	w := opts.weight()
	nodes := t.Nodes()
	arcs := t.Arcs()
	active := opts.Active
	avoid := opts.Avoid
	if active != nil && nodes[src].Kind != topo.KindHost && !active.Router[src] {
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
		if nodes[u].Kind == topo.KindHost && u != src {
			continue // hosts terminate paths
		}
		du := ws.dist[u]
		for _, aid := range t.In(u) {
			a := &arcs[aid]
			v := a.From
			if active != nil {
				if !active.Link[a.Link] {
					continue
				}
				if nodes[v].Kind != topo.KindHost && !active.Router[v] {
					continue
				}
			}
			if avoid != nil && avoid(*a) {
				continue
			}
			wt := w(*a)
			if math.IsInf(wt, 1) || wt < 0 {
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
	if ws.stamp[dst] != ws.epoch || math.IsInf(ws.dist[dst], 1) {
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
	ws.run(t, o, opts, d)
	return ws.pathTo(t, d)
}

// ShortestTree runs a full Dijkstra from src and leaves the labels in
// the workspace; read them through Dist and PathTo until the next run.
func (ws *Workspace) ShortestTree(t *topo.Topology, src topo.NodeID, opts Options) {
	ws.run(t, src, opts, -1)
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
		if ws.stamp[i] == ws.epoch {
			tr.Dist[i] = ws.dist[i]
			tr.PrevArc[i] = ws.prev[i]
		} else {
			tr.Dist[i] = math.Inf(1)
			tr.PrevArc[i] = -1
		}
	}
	return tr
}
