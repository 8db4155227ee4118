package spf

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"response/internal/topo"
)

// hops weights every arc 1: minimum-hop routing.
func hops(topo.Arc) float64 { return 1 }

// grid builds a 3x3 grid of routers with uniform 10 Mbps / 1 ms links.
func grid(t *testing.T) (*topo.Topology, [9]topo.NodeID) {
	t.Helper()
	tp := topo.New("grid3")
	var n [9]topo.NodeID
	for i := 0; i < 9; i++ {
		n[i] = tp.AddNode(string(rune('a'+i)), topo.KindRouter)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			i := r*3 + c
			if c < 2 {
				tp.AddLink(n[i], n[i+1], 10*topo.Mbps, 0.001)
			}
			if r < 2 {
				tp.AddLink(n[i], n[i+3], 10*topo.Mbps, 0.001)
			}
		}
	}
	return tp, n
}

func TestShortestPathLatency(t *testing.T) {
	tp, n := grid(t)
	p, ok := ShortestPath(tp, n[0], n[8], Options{})
	if !ok {
		t.Fatal("no path")
	}
	if p.Len() != 4 {
		t.Errorf("corner-to-corner hops = %d, want 4", p.Len())
	}
	if err := p.Check(tp); err != nil {
		t.Error(err)
	}
	if p.Origin(tp) != n[0] || p.Destination(tp) != n[8] {
		t.Error("endpoints wrong")
	}
}

func TestShortestPathSameNode(t *testing.T) {
	tp, n := grid(t)
	p, ok := ShortestPath(tp, n[0], n[0], Options{})
	if !ok || !p.Empty() {
		t.Error("self path should be empty and ok")
	}
}

func TestInvCapPrefersFatPipes(t *testing.T) {
	// A->B direct on thin link, A->C->B on fat links. InvCap picks the
	// detour; latency picks the direct hop.
	tp := topo.New("invcap")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	c := tp.AddNode("C", topo.KindRouter)
	tp.AddLink(a, b, 10*topo.Mbps, 0.001)
	tp.AddLink(a, c, 1*topo.Gbps, 0.001)
	tp.AddLink(c, b, 1*topo.Gbps, 0.001)
	lat, _ := ShortestPath(tp, a, b, Options{Weight: Latency()})
	inv, _ := ShortestPath(tp, a, b, Options{Weight: InvCap()})
	if lat.Len() != 1 {
		t.Errorf("latency path hops = %d, want 1", lat.Len())
	}
	if inv.Len() != 2 {
		t.Errorf("InvCap path hops = %d, want 2", inv.Len())
	}
}

func TestHopsWeight(t *testing.T) {
	tp, n := grid(t)
	p, _ := ShortestPath(tp, n[0], n[2], Options{Weight: hops})
	if p.Len() != 2 {
		t.Errorf("hops = %d, want 2", p.Len())
	}
}

func TestActiveSetRestriction(t *testing.T) {
	tp, n := grid(t)
	active := topo.AllOn(tp)
	// Cut the top row after a: path must detour.
	ab, _ := tp.ArcBetween(n[0], n[1])
	active.Link[tp.Arc(ab).Link] = false
	p, ok := ShortestPath(tp, n[0], n[2], Options{Active: active})
	if !ok {
		t.Fatal("no path with detour available")
	}
	if p.Len() <= 2 {
		t.Errorf("detour hops = %d, want > 2", p.Len())
	}
	// Power everything off: unreachable.
	off := topo.AllOff(tp)
	if _, ok := ShortestPath(tp, n[0], n[2], Options{Active: off}); ok {
		t.Error("path found on powered-off network")
	}
}

func TestAvoidPredicate(t *testing.T) {
	tp, n := grid(t)
	p, ok := ShortestPath(tp, n[0], n[2], Options{
		Avoid: func(a topo.Arc) bool { return a.To == n[1] || a.From == n[1] },
	})
	if !ok {
		t.Fatal("no avoiding path")
	}
	if slices.Contains(p.Nodes(tp), n[1]) {
		t.Error("avoided node used")
	}
}

func TestHostsDoNotTransit(t *testing.T) {
	// A - H - B where H is a host, plus a long router detour A-R-B.
	tp := topo.New("host-transit")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	h := tp.AddNode("H", topo.KindHost)
	r := tp.AddNode("R", topo.KindRouter)
	tp.AddLink(a, h, topo.Gbps, 0.001)
	tp.AddLink(h, b, topo.Gbps, 0.001)
	tp.AddLink(a, r, topo.Mbps, 0.010)
	tp.AddLink(r, b, topo.Mbps, 0.010)
	p, ok := ShortestPath(tp, a, b, Options{})
	if !ok {
		t.Fatal("no path")
	}
	if slices.Contains(p.Nodes(tp), h) {
		t.Error("path transits a host")
	}
	// But a host can be an endpoint.
	p, ok = ShortestPath(tp, a, h, Options{})
	if !ok || p.Destination(tp) != h {
		t.Error("host endpoint unreachable")
	}
	// And a host can originate.
	p, ok = ShortestPath(tp, h, b, Options{})
	if !ok || p.Origin(tp) != h {
		t.Error("host origin failed")
	}
}

func TestKShortestProperties(t *testing.T) {
	tp, n := grid(t)
	paths := KShortest(tp, n[0], n[8], 6, Options{})
	if len(paths) < 4 {
		t.Fatalf("got %d paths", len(paths))
	}
	seen := map[string]bool{}
	prev := -1.0
	for i, p := range paths {
		if err := p.Check(tp); err != nil {
			t.Errorf("path %d: %v", i, err)
		}
		if p.Origin(tp) != n[0] || p.Destination(tp) != n[8] {
			t.Errorf("path %d endpoints wrong", i)
		}
		if seen[p.Key()] {
			t.Errorf("duplicate path %d", i)
		}
		seen[p.Key()] = true
		w := PathWeight(tp, p, Options{})
		if w < prev-1e-12 {
			t.Errorf("paths not sorted: %v after %v", w, prev)
		}
		prev = w
	}
}

func TestKShortestOnePathGraph(t *testing.T) {
	tp := topo.New("line2")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	tp.AddLink(a, b, topo.Mbps, 0.001)
	paths := KShortest(tp, a, b, 5, Options{})
	if len(paths) != 1 {
		t.Errorf("paths = %d, want 1", len(paths))
	}
	if KShortest(tp, a, b, 0, Options{}) != nil {
		t.Error("k=0 should return nil")
	}
}

// Property: the shortest path weight is minimal among all simple paths
// found by exhaustive DFS on small random graphs.
func TestShortestIsMinimalProperty(t *testing.T) {
	f := func(seed uint32) bool {
		tp := randomGraph(int64(seed))
		if tp.NumNodes() < 2 {
			return true
		}
		o, d := topo.NodeID(0), topo.NodeID(tp.NumNodes()-1)
		got, ok := ShortestPath(tp, o, d, Options{})
		best := dfsBest(tp, o, d)
		if !ok {
			return math.IsInf(best, 1)
		}
		return math.Abs(PathWeight(tp, got, Options{})-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomGraph builds a connected-ish random topology of 4-7 routers.
func randomGraph(seed int64) *topo.Topology {
	tp := topo.New("rand")
	rng := seed
	next := func(n int64) int64 {
		rng = (rng*6364136223846793005 + 1442695040888963407)
		v := rng % n
		if v < 0 {
			v += n
		}
		return v
	}
	nodes := int(4 + next(4))
	ids := make([]topo.NodeID, nodes)
	for i := range ids {
		ids[i] = tp.AddNode(string(rune('A'+i)), topo.KindRouter)
	}
	// Spanning chain plus random chords.
	for i := 1; i < nodes; i++ {
		tp.AddLink(ids[i-1], ids[i], topo.Mbps, float64(1+next(5))/1000)
	}
	chords := int(next(int64(nodes)))
	for c := 0; c < chords; c++ {
		a := int(next(int64(nodes)))
		b := int(next(int64(nodes)))
		if a == b {
			continue
		}
		if _, dup := tp.ArcBetween(ids[a], ids[b]); dup {
			continue
		}
		tp.AddLink(ids[a], ids[b], topo.Mbps, float64(1+next(5))/1000)
	}
	return tp
}

// dfsBest exhaustively finds the min-latency simple path weight.
func dfsBest(tp *topo.Topology, o, d topo.NodeID) float64 {
	best := math.Inf(1)
	seen := make([]bool, tp.NumNodes())
	var dfs func(n topo.NodeID, w float64)
	dfs = func(n topo.NodeID, w float64) {
		if n == d {
			if w < best {
				best = w
			}
			return
		}
		seen[n] = true
		for _, aid := range tp.Out(n) {
			a := tp.Arc(aid)
			if !seen[a.To] {
				dfs(a.To, w+a.Latency)
			}
		}
		seen[n] = false
	}
	dfs(o, 0)
	return best
}
