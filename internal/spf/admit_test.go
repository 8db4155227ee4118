package spf

import (
	"math"
	"testing"

	"response/internal/topo"
)

// TestAdmit walks the arc-admission rule clause by clause, once as a
// forward relaxation (far end = a.To) and once as a backward one (far
// end = a.From). The fixture is r0 — r1 — h with h a host.
func TestAdmit(t *testing.T) {
	g := topo.New("admit")
	r0 := g.AddNode("r0", topo.KindRouter)
	r1 := g.AddNode("r1", topo.KindRouter)
	h := g.AddNode("h", topo.KindHost)
	g.AddLink(r0, r1, topo.Gbps, 0.375)
	g.AddLink(r1, h, topo.Gbps, 1)
	nodes := g.Nodes()
	arc := func(from, to topo.NodeID) *topo.Arc {
		id, ok := g.ArcBetween(from, to)
		if !ok {
			t.Fatalf("no arc %d->%d", from, to)
		}
		return &g.Arcs()[id]
	}
	off := func(links []topo.LinkID, routers ...topo.NodeID) *topo.ActiveSet {
		as := topo.AllOn(g)
		for _, l := range links {
			as.Link[l] = false
		}
		for _, r := range routers {
			as.Router[r] = false
		}
		return as
	}
	avoidAll := func(topo.Arc) bool { return true }
	avoidNone := func(topo.Arc) bool { return false }

	for _, reverse := range []bool{false, true} {
		// Between the routers: rr is relaxed toward far, away from near.
		// At the host: rh is relaxed toward h.
		rr, far, near := arc(r0, r1), r1, r0
		rh := arc(r1, h)
		if reverse {
			far, near = r0, r1
			rh = arc(h, r1)
		}
		cases := []struct {
			name   string
			opts   Options
			a      *topo.Arc
			far    topo.NodeID
			w      float64
			ok     bool
			wCalls int
		}{
			{"unrestricted", Options{}, rr, far, 2.5, true, 1},
			{"zero weight", Options{}, rr, far, 0, true, 1},
			{"all on", Options{Active: topo.AllOn(g)}, rr, far, 2.5, true, 1},
			{"link off", Options{Active: off([]topo.LinkID{rr.Link})}, rr, far, 2.5, false, 0},
			{"other link off", Options{Active: off([]topo.LinkID{rh.Link})}, rr, far, 2.5, true, 1},
			{"far router off", Options{Active: off(nil, far)}, rr, far, 2.5, false, 0},
			{"near router off", Options{Active: off(nil, near)}, rr, far, 2.5, true, 1},
			{"far host unpowered", Options{Active: off(nil, h)}, rh, h, 2.5, true, 1},
			{"avoid hit", Options{Avoid: avoidAll}, rr, far, 2.5, false, 0},
			{"avoid miss", Options{Avoid: avoidNone}, rr, far, 2.5, true, 1},
			{"+Inf weight", Options{}, rr, far, math.Inf(1), false, 1},
			{"negative weight", Options{}, rr, far, -1, false, 1},
			{"NaN weight", Options{}, rr, far, math.NaN(), false, 1},
		}
		for _, c := range cases {
			calls := 0
			c.opts.Weight = func(a topo.Arc) float64 {
				calls++
				if a.ID != c.a.ID {
					t.Errorf("reverse=%v %s: weight asked about arc %d, want %d", reverse, c.name, a.ID, c.a.ID)
				}
				return c.w
			}
			wt, ok := c.opts.admit(nodes, c.a, c.far)
			if ok != c.ok || (ok && wt != c.w) {
				t.Errorf("reverse=%v %s: admit = (%v, %v), want (%v, %v)", reverse, c.name, wt, ok, c.w, c.ok)
			}
			if calls != c.wCalls {
				t.Errorf("reverse=%v %s: weight called %d times, want %d", reverse, c.name, calls, c.wCalls)
			}
		}
		// No Weight: the arc's latency.
		if wt, ok := (&Options{}).admit(nodes, rr, far); !ok || wt != rr.Latency {
			t.Errorf("reverse=%v default weight: admit = (%v, %v), want (%v, true)", reverse, wt, ok, rr.Latency)
		}
	}
}
