package topo

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds A->{B,C}->D.
func diamond(t *testing.T) (*Topology, [4]NodeID) {
	t.Helper()
	tp := New("diamond")
	a := tp.AddNode("A", KindRouter)
	b := tp.AddNode("B", KindRouter)
	c := tp.AddNode("C", KindRouter)
	d := tp.AddNode("D", KindRouter)
	tp.AddLink(a, b, 10*Mbps, 0.001)
	tp.AddLink(a, c, 20*Mbps, 0.002)
	tp.AddLink(b, d, 10*Mbps, 0.001)
	tp.AddLink(c, d, 20*Mbps, 0.002)
	return tp, [4]NodeID{a, b, c, d}
}

func pathVia(t *testing.T, tp *Topology, hops ...NodeID) Path {
	t.Helper()
	var arcs []ArcID
	for i := 0; i+1 < len(hops); i++ {
		id, ok := tp.ArcBetween(hops[i], hops[i+1])
		if !ok {
			t.Fatalf("no arc %d->%d", hops[i], hops[i+1])
		}
		arcs = append(arcs, id)
	}
	return Path{Arcs: arcs}
}

func TestPathBasics(t *testing.T) {
	tp, n := diamond(t)
	p := pathVia(t, tp, n[0], n[1], n[3])
	if p.Empty() || p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
	if p.Origin(tp) != n[0] || p.Destination(tp) != n[3] {
		t.Error("endpoints wrong")
	}
	nodes := p.Nodes(tp)
	if len(nodes) != 3 || nodes[1] != n[1] {
		t.Errorf("nodes = %v", nodes)
	}
	if math.Abs(p.Latency(tp)-0.002) > 1e-12 {
		t.Errorf("latency = %v", p.Latency(tp))
	}
	if p.Bottleneck(tp) != 10*Mbps {
		t.Errorf("bottleneck = %v", p.Bottleneck(tp))
	}
	if err := p.Check(tp); err != nil {
		t.Error(err)
	}
}

func TestPathCheckCatchesErrors(t *testing.T) {
	tp, n := diamond(t)
	ab, _ := tp.ArcBetween(n[0], n[1])
	cd, _ := tp.ArcBetween(n[2], n[3])
	disc := Path{Arcs: []ArcID{ab, cd}}
	if disc.Check(tp) == nil {
		t.Error("discontinuous path accepted")
	}
	ba := tp.Reverse(ab)
	loop := Path{Arcs: []ArcID{ab, ba}}
	if loop.Check(tp) == nil {
		t.Error("looping path accepted")
	}
	bad := Path{Arcs: []ArcID{ArcID(999)}}
	if bad.Check(tp) == nil {
		t.Error("out-of-range arc accepted")
	}
	var empty Path
	if empty.Check(tp) != nil {
		t.Error("empty path should be valid")
	}
}

func TestPathUsesAndShares(t *testing.T) {
	tp, n := diamond(t)
	up := pathVia(t, tp, n[0], n[1], n[3])
	down := pathVia(t, tp, n[0], n[2], n[3])
	if up.SharedLinks(tp, down) != 0 {
		t.Error("disjoint paths report sharing")
	}
	if up.SharedLinks(tp, up) != 2 {
		t.Error("self-sharing should equal length")
	}
	if nodes := up.Nodes(tp); len(nodes) != 3 || nodes[1] != n[1] {
		t.Errorf("up path visits %v, want A, %d, D", nodes, n[1])
	}
	first := Path{Arcs: up.Arcs[:1]}
	if first.SharedLinks(tp, up) != 1 || first.SharedLinks(tp, down) != 0 {
		t.Error("a one-hop prefix shares its link with its own path only")
	}
}

func TestPathActiveUnder(t *testing.T) {
	tp, n := diamond(t)
	p := pathVia(t, tp, n[0], n[1], n[3])
	a := AllOn(tp)
	if !p.ActiveUnder(tp, a) {
		t.Fatal("all-on should satisfy path")
	}
	a.Router[n[1]] = false
	if p.ActiveUnder(tp, a) {
		t.Error("path through off router should be inactive")
	}
	a = AllOn(tp)
	a.Link[tp.Arc(p.Arcs[1]).Link] = false
	if p.ActiveUnder(tp, a) {
		t.Error("path over off link should be inactive")
	}
}

func TestPathEqualAndKey(t *testing.T) {
	tp, n := diamond(t)
	p := pathVia(t, tp, n[0], n[1], n[3])
	q := pathVia(t, tp, n[0], n[2], n[3])
	if p.Equal(q) || !p.Equal(p) {
		t.Error("Equal wrong")
	}
	if p.Key() == q.Key() {
		t.Error("distinct paths share a key")
	}
	if !strings.Contains(p.Format(tp), "A -> B -> D") {
		t.Errorf("Format = %q", p.Format(tp))
	}
	var empty Path
	if empty.Format(tp) != "(empty)" || empty.Key() != "" {
		t.Error("empty path formatting wrong")
	}
}

func TestNewPathValidates(t *testing.T) {
	tp, n := diamond(t)
	ab, _ := tp.ArcBetween(n[0], n[1])
	cd, _ := tp.ArcBetween(n[2], n[3])
	if _, err := NewPath(tp, []ArcID{ab, cd}); err == nil {
		t.Error("NewPath accepted discontinuity")
	}
	bd, _ := tp.ArcBetween(n[1], n[3])
	if _, err := NewPath(tp, []ArcID{ab, bd}); err != nil {
		t.Errorf("NewPath rejected valid path: %v", err)
	}
}

func TestActiveSetBasics(t *testing.T) {
	tp, n := diamond(t)
	a := AllOn(tp)
	r, l := a.CountOn()
	if r != 4 || l != 4 {
		t.Fatalf("counts %d/%d", r, l)
	}
	b := a.Clone()
	b.Router[n[0]] = false
	if a.Equal(b) {
		t.Error("clone mutation leaked")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("fingerprints should differ")
	}
	off := AllOff(tp)
	if r, l := off.CountOn(); r != 0 || l != 0 {
		t.Error("AllOff not off")
	}
	if !strings.Contains(a.String(), "routers:4/4") {
		t.Errorf("String = %q", a.String())
	}
}

func TestEnforceInvariants(t *testing.T) {
	tp, n := diamond(t)
	a := AllOn(tp)
	a.Router[n[1]] = false
	a.EnforceInvariants(tp)
	// Both links touching B must now be off.
	for _, l := range tp.Links() {
		if l.A == n[1] || l.B == n[1] {
			if a.Link[l.ID] {
				t.Errorf("link %d still on next to off router", l.ID)
			}
		}
	}
	// A router with all links off powers off.
	b := AllOn(tp)
	for i := range b.Link {
		b.Link[i] = false
	}
	b.EnforceInvariants(tp)
	for _, node := range tp.Nodes() {
		if b.Router[node.ID] {
			t.Errorf("router %d on with no links", node.ID)
		}
	}
}

// Property: EnforceInvariants is idempotent.
func TestEnforceInvariantsIdempotent(t *testing.T) {
	tp, _ := diamond(t)
	f := func(rbits, lbits uint8) bool {
		a := AllOff(tp)
		for i := range a.Router {
			a.Router[i] = rbits&(1<<uint(i)) != 0
		}
		for i := range a.Link {
			a.Link[i] = lbits&(1<<uint(i)) != 0
		}
		a.EnforceInvariants(tp)
		b := a.Clone()
		b.EnforceInvariants(tp)
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 256}); err != nil {
		t.Error(err)
	}
}

func TestActivatePathAndUnion(t *testing.T) {
	tp, n := diamond(t)
	p := pathVia(t, tp, n[0], n[1], n[3])
	a := AllOff(tp)
	a.ActivatePath(tp, p)
	if !p.ActiveUnder(tp, a) {
		t.Fatal("ActivatePath did not power the path")
	}
	if a.Router[n[2]] {
		t.Error("unrelated router powered")
	}
	q := pathVia(t, tp, n[0], n[2], n[3])
	b := AllOff(tp)
	b.ActivatePath(tp, q)
	a.Union(b)
	if !q.ActiveUnder(tp, a) {
		t.Error("union lost second path")
	}
}

func TestFingerprintSeparatesRoutersFromLinks(t *testing.T) {
	// Topology with equal router and link counts so that swapping the
	// two vectors could collide without domain separation.
	tp := New("ring3")
	a := tp.AddNode("A", KindRouter)
	b := tp.AddNode("B", KindRouter)
	c := tp.AddNode("C", KindRouter)
	tp.AddLink(a, b, Mbps, 0.001)
	tp.AddLink(b, c, Mbps, 0.001)
	tp.AddLink(a, c, Mbps, 0.001)
	x := AllOff(tp)
	x.Router[0] = true
	y := AllOff(tp)
	y.Link[0] = true
	if x.Fingerprint() == y.Fingerprint() {
		t.Error("router/link patterns collide")
	}
}
