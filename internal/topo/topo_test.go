package topo

import (
	"math"
	"strings"
	"testing"
)

// line builds A-B-C with 10 Mbps links of 1 ms.
func line(t *testing.T) (*Topology, []NodeID) {
	t.Helper()
	tp := New("line")
	a := tp.AddNode("A", KindRouter)
	b := tp.AddNode("B", KindRouter)
	c := tp.AddNode("C", KindRouter)
	tp.AddLink(a, b, 10*Mbps, 0.001)
	tp.AddLink(b, c, 10*Mbps, 0.001)
	return tp, []NodeID{a, b, c}
}

func TestAddLinkCreatesArcPair(t *testing.T) {
	tp, ids := line(t)
	if tp.NumNodes() != 3 || tp.NumLinks() != 2 || tp.NumArcs() != 4 {
		t.Fatalf("counts: %d nodes %d links %d arcs", tp.NumNodes(), tp.NumLinks(), tp.NumArcs())
	}
	ab, ok := tp.ArcBetween(ids[0], ids[1])
	if !ok {
		t.Fatal("missing arc A->B")
	}
	ba := tp.Reverse(ab)
	if tp.Arc(ba).From != ids[1] || tp.Arc(ba).To != ids[0] {
		t.Errorf("reverse arc endpoints wrong: %+v", tp.Arc(ba))
	}
	if tp.Arc(ab).Link != tp.Arc(ba).Link {
		t.Error("arc pair should share a link")
	}
	if err := tp.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAddLinkPanics(t *testing.T) {
	tp := New("x")
	a := tp.AddNode("A", KindRouter)
	b := tp.AddNode("B", KindRouter)
	tp.AddLink(a, b, Mbps, 0.001)
	assertPanics(t, "self-loop", func() { tp.AddLink(a, a, Mbps, 0.001) })
	assertPanics(t, "duplicate", func() { tp.AddLink(b, a, Mbps, 0.001) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestAsymmetricCapacity(t *testing.T) {
	tp := New("asym")
	a := tp.AddNode("A", KindRouter)
	b := tp.AddNode("B", KindRouter)
	tp.AddAsymLink(a, b, 10*Mbps, 2*Mbps, 0.001)
	ab, _ := tp.ArcBetween(a, b)
	ba, _ := tp.ArcBetween(b, a)
	if tp.Arc(ab).Capacity != 10*Mbps || tp.Arc(ba).Capacity != 2*Mbps {
		t.Errorf("capacities %v / %v", tp.Arc(ab).Capacity, tp.Arc(ba).Capacity)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeAndAdjacency(t *testing.T) {
	tp, ids := line(t)
	if tp.Degree(ids[1]) != 2 || tp.Degree(ids[0]) != 1 {
		t.Errorf("degrees: %d %d", tp.Degree(ids[1]), tp.Degree(ids[0]))
	}
	if len(tp.Out(ids[1])) != 2 || len(tp.In(ids[1])) != 2 {
		t.Error("adjacency lists wrong")
	}
}

func TestConnected(t *testing.T) {
	tp, _ := line(t)
	if !tp.Connected() {
		t.Error("line should be connected")
	}
	tp.AddNode("isolated", KindRouter)
	if tp.Connected() {
		t.Error("isolated node should break connectivity")
	}
}

func TestConnectedUnder(t *testing.T) {
	tp, ids := line(t)
	a := AllOn(tp)
	if !tp.ConnectedUnder(a) {
		t.Fatal("all-on should be connected")
	}
	// Power off the middle link: A and C split.
	lid := tp.Arc(mustArc(t, tp, ids[1], ids[2])).Link
	a.Link[lid] = false
	if tp.ConnectedUnder(a) {
		t.Error("removing B-C should disconnect C")
	}
	// Powering C off too makes the remaining set connected again.
	a.Router[ids[2]] = false
	if !tp.ConnectedUnder(a) {
		t.Error("A-B alone should be connected")
	}
}

func mustArc(t *testing.T, tp *Topology, a, b NodeID) ArcID {
	t.Helper()
	id, ok := tp.ArcBetween(a, b)
	if !ok {
		t.Fatalf("no arc %d->%d", a, b)
	}
	return id
}

func TestDistanceAndLinkKm(t *testing.T) {
	tp := New("geo")
	a := tp.AddNodeAt("A", KindRouter, 0, 0)
	b := tp.AddNodeAt("B", KindRouter, 300, 400) // 500 km
	if d := tp.DistanceKm(a, b); math.Abs(d-500) > 1e-9 {
		t.Fatalf("distance = %v", d)
	}
	lid := tp.AddLinkKm(a, b, Gbps)
	l := tp.Link(lid)
	wantLat := 500/200000.0 + 0.0001
	if math.Abs(tp.Arc(l.AB).Latency-wantLat) > 1e-9 {
		t.Errorf("latency = %v, want %v", tp.Arc(l.AB).Latency, wantLat)
	}
	if math.Abs(l.LengthKm-wantLat*200000) > 1e-6 {
		t.Errorf("length = %v", l.LengthKm)
	}
}

func TestMaxRTT(t *testing.T) {
	tp, _ := line(t)
	// Longest shortest path: A..C = 2 ms one-way, RTT 4 ms.
	if rtt := tp.MaxRTT(); math.Abs(rtt-0.004) > 1e-9 {
		t.Errorf("MaxRTT = %v, want 0.004", rtt)
	}
}

func TestNodesOfKindAndByName(t *testing.T) {
	tp := New("kinds")
	tp.AddNode("r1", KindRouter)
	tp.AddNode("h1", KindHost)
	tp.AddNode("r2", KindRouter)
	if got := tp.NodesOfKind(KindRouter); len(got) != 2 {
		t.Errorf("routers = %v", got)
	}
	id, ok := tp.NodeByName("h1")
	if !ok || tp.Node(id).Kind != KindHost {
		t.Error("NodeByName failed")
	}
	if _, ok := tp.NodeByName("nope"); ok {
		t.Error("unknown name should miss")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindRouter: "router", KindCore: "core", KindAggr: "aggr",
		KindEdge: "edge", KindHost: "host",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should include numeric value")
	}
}

func TestBuildersValidateAndConnect(t *testing.T) {
	builders := map[string]*Topology{
		"geant":    NewGeant(),
		"abovenet": NewAbovenet(),
		"genuity":  NewGenuity(),
	}
	pa := NewPopAccess()
	builders["pop-access"] = pa.Topology
	ex := NewExample(ExampleOpts{})
	builders["fig3"] = ex.Topology
	exB := NewExample(ExampleOpts{IncludeB: true})
	builders["fig3+B"] = exB.Topology
	for name, tp := range builders {
		if err := tp.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !tp.Connected() {
			t.Errorf("%s: not connected", name)
		}
	}
	if NewGeant().NumNodes() != 23 {
		t.Errorf("GÉANT nodes = %d, want 23", NewGeant().NumNodes())
	}
	if NewGeant().NumLinks() != 37 {
		t.Errorf("GÉANT links = %d, want 37", NewGeant().NumLinks())
	}
}

func TestRocketfuelCapacityRule(t *testing.T) {
	tp := NewGenuity()
	hiDeg := false
	for _, a := range tp.Arcs() {
		want := 100 * Mbps
		if tp.Degree(a.From) >= 7 || tp.Degree(a.To) >= 7 {
			want = 52 * Mbps
			hiDeg = true
		}
		if a.Capacity != want {
			t.Fatalf("arc %d capacity %v, want %v", a.ID, a.Capacity, want)
		}
	}
	if !hiDeg {
		t.Error("expected at least one degree>=7 PoP in Genuity")
	}
}

func TestPopAccessStructure(t *testing.T) {
	pa := NewPopAccess() // 4 cores, 2 backbone per core, 2 metro per backbone
	if len(pa.Core) != 4 || len(pa.Backbone) != 8 || len(pa.Metro) != 16 {
		t.Fatalf("layer sizes: %d/%d/%d", len(pa.Core), len(pa.Backbone), len(pa.Metro))
	}
	// Core full mesh: 6 links; backbone dual-homed: 16; metro: 32.
	if pa.NumLinks() != 6+16+32 {
		t.Errorf("links = %d, want 54", pa.NumLinks())
	}
	for _, m := range pa.Metro {
		if pa.Degree(m) != 2 {
			t.Errorf("metro %d degree %d, want 2 (dual-homed)", m, pa.Degree(m))
		}
	}
}

func TestExamplePaths(t *testing.T) {
	ex := NewExample(ExampleOpts{})
	for name, p := range map[string]Path{
		"middleA": ex.MiddlePath(ex.A),
		"middleC": ex.MiddlePath(ex.C),
		"upper":   ex.UpperPath(),
		"lower":   ex.LowerPath(),
	} {
		if p.Empty() {
			t.Fatalf("%s path empty", name)
		}
		if err := p.Check(ex.Topology); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Destination(ex.Topology) != ex.K {
			t.Errorf("%s should end at K", name)
		}
	}
	if ex.MiddlePath(ex.A).SharedLinks(ex.Topology, ex.UpperPath()) != 0 {
		t.Error("middle and upper should be link-disjoint")
	}
}

func TestSortedNodeIDs(t *testing.T) {
	tp, _ := line(t)
	ids := tp.SortedNodeIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("not sorted")
		}
	}
	if len(ids) != tp.NumNodes() {
		t.Fatal("wrong length")
	}
}
