package spf

import (
	"math"
	"sync"

	"response/internal/topo"
)

// Landmarks is an ALT (A*, landmarks, triangle inequality) preprocessing
// table: latency distances from and to a small set of landmark nodes,
// computed once per topology on the plain (unrestricted) graph. The
// triangle inequality over these tables yields admissible lower bounds
// on the latency distance between any node pair.
//
// Bounds are valid for any search whose effective arc weight is
// everywhere ≥ the arc latency (Options.LatencyBound documents which
// searches qualify): a lower bound under a smaller weight is still a
// lower bound under the larger one. Searches under Active/Avoid
// restrictions only remove arcs, which can only increase true
// distances, so the bounds remain admissible there too.
type Landmarks struct {
	nodes []topo.NodeID // chosen landmark nodes
	fwd   [][]float64   // fwd[l][v] = dist(landmark l → v) on the plain graph
	bwd   [][]float64   // bwd[l][v] = dist(v → landmark l) on the plain graph
}

// hScale shrinks every ALT bound by one ulp-scale factor so that
// float-level noise in the triangle inequality (the tables and the
// search accumulate rounding differently) cannot push a bound above the
// true distance. Scaling a consistent heuristic by a constant ≤ 1
// preserves consistency.
const hScale = 1 - 1e-9

// defaultLandmarks is the landmark budget; small graphs take fewer
// (diminishing returns, and selection saturates once every candidate is
// a landmark).
const defaultLandmarks = 8

// landmarkRegistry caches landmark tables per topology fingerprint so
// concurrent workspaces planning the same topology share one
// preprocessing pass.
var landmarkRegistry struct {
	sync.Mutex
	m map[uint64]*Landmarks
}

// LandmarksFor returns the landmark table for t, building and caching
// it on first use. Safe for concurrent use.
func LandmarksFor(t *topo.Topology) *Landmarks {
	fp := t.Fingerprint()
	landmarkRegistry.Lock()
	defer landmarkRegistry.Unlock()
	if lm, ok := landmarkRegistry.m[fp]; ok {
		return lm
	}
	lm := buildLandmarks(t, defaultLandmarks)
	if landmarkRegistry.m == nil {
		landmarkRegistry.m = make(map[uint64]*Landmarks)
	}
	landmarkRegistry.m[fp] = lm
	return lm
}

// buildLandmarks selects n landmarks by farthest-point selection among
// non-host nodes and fills their forward/backward distance tables. The
// selection Dijkstras double as the forward tables, so preprocessing
// costs exactly 2n single-source runs.
func buildLandmarks(t *topo.Topology, n int) *Landmarks {
	var cands []topo.NodeID
	for _, nd := range t.Nodes() {
		if nd.Kind != topo.KindHost {
			cands = append(cands, nd.ID)
		}
	}
	if len(cands) == 0 {
		return &Landmarks{}
	}
	if len(cands) < 24 {
		n = 4
	}
	if n > len(cands) {
		n = len(cands)
	}
	lm := &Landmarks{}
	ws := NewWorkspace()
	// minDist[v] = distance from v to its nearest chosen landmark
	// (forward direction), used by the farthest-selection rule.
	minDist := make([]float64, t.NumNodes())
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	root := cands[0] // lowest-ID non-host: Nodes() is ID-ordered
	next := root
	for len(lm.nodes) < n {
		l := next
		ws.run(t, l, Options{}, -1, false)
		row := make([]float64, t.NumNodes())
		for v := 0; v < t.NumNodes(); v++ {
			row[v] = ws.distAt(topo.NodeID(v))
		}
		lm.nodes = append(lm.nodes, l)
		lm.fwd = append(lm.fwd, row)
		// Update nearest-landmark distances and pick the farthest
		// candidate as the next landmark (ties: lowest ID).
		best := math.Inf(-1)
		next = -1
		for _, c := range cands {
			if row[c] < minDist[c] {
				minDist[c] = row[c]
			}
			d := minDist[c]
			if math.IsInf(d, 1) {
				continue // disconnected from every landmark; skip
			}
			if d > best {
				best = d
				next = c
			}
		}
		if next < 0 || best <= 0 {
			break // every candidate is a landmark (or unreachable)
		}
	}
	// Backward tables: reverse Dijkstra from each landmark.
	for _, l := range lm.nodes {
		ws.run(t, l, Options{}, -1, true)
		row := make([]float64, t.NumNodes())
		for v := 0; v < t.NumNodes(); v++ {
			row[v] = ws.distAt(topo.NodeID(v))
		}
		lm.bwd = append(lm.bwd, row)
	}
	return lm
}

// Count returns the number of landmarks in the table.
func (lm *Landmarks) Count() int { return len(lm.nodes) }

// Subset returns a view restricted to the first k landmarks (used by
// the monotonicity metamorphic tests: fewer landmarks can only loosen
// bounds).
func (lm *Landmarks) Subset(k int) *Landmarks {
	if k >= len(lm.nodes) {
		return lm
	}
	if k < 0 {
		k = 0
	}
	return &Landmarks{nodes: lm.nodes[:k], fwd: lm.fwd[:k], bwd: lm.bwd[:k]}
}

// HBound returns an admissible lower bound on the latency distance from
// v to target: the best of the two triangle inequalities over every
// landmark, shrunk by hScale. Returns 0 when no landmark gives a finite
// bound. As a max of per-landmark consistent potentials it is itself
// consistent.
func (lm *Landmarks) HBound(v, target topo.NodeID) float64 {
	var h float64
	for l := range lm.nodes {
		// dist(v,t) ≥ dist(v,L) − dist(t,L)  [backward table]
		if bv, bt := lm.bwd[l][v], lm.bwd[l][target]; !math.IsInf(bv, 1) && !math.IsInf(bt, 1) {
			if b := bv - bt; b > h {
				h = b
			}
		}
		// dist(v,t) ≥ dist(L,t) − dist(L,v)  [forward table]
		if fv, ft := lm.fwd[l][v], lm.fwd[l][target]; !math.IsInf(fv, 1) && !math.IsInf(ft, 1) {
			if b := ft - fv; b > h {
				h = b
			}
		}
	}
	return h * hScale
}
