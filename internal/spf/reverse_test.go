package spf_test

import (
	"math"
	"math/rand"
	"testing"

	"response/internal/spf"
	"response/internal/topo"
	"response/internal/topogen"
)

// TestReverseRunMatchesForward holds the reversed-graph search to the
// forward one: after a reverse run from src, the label of v is the
// forward ShortestPath(v → src) distance, bit for bit — under a raw
// (not invariant-closed) active subset and a direction-dependent avoid
// set. The backward landmark tables and the backward half of the
// bidirectional engine are exactly this search.
//
// Weights are asymmetric multiples of 1/8, so path sums are exact in
// either summation order and bit equality is a fair demand.
func TestReverseRunMatchesForward(t *testing.T) {
	ft, err := topo.NewFatTree(4, topo.FatTreeOpts{WithHosts: true})
	if err != nil {
		t.Fatal(err)
	}
	topos := []*topo.Topology{
		topo.NewGeant(),
		ft.Topology,
		genTopo(t, topogen.FamilyWaxman, 30, 7).Topo,
	}
	weight := func(a topo.Arc) float64 { return float64(1+(7*int(a.ID)+3)%11) / 8 }
	avoid := func(a topo.Arc) bool { return a.ID%7 == 3 }
	for _, g := range topos {
		rng := rand.New(rand.NewSource(11))
		raw := topo.AllOn(g)
		for l := range raw.Link {
			raw.Link[l] = rng.Intn(4) != 0
		}
		for r := range raw.Router {
			raw.Router[r] = rng.Intn(7) != 0
		}
		variants := map[string]spf.Options{
			"plain":        {Weight: weight},
			"active":       {Weight: weight, Active: raw},
			"avoid":        {Weight: weight, Avoid: avoid},
			"active+avoid": {Weight: weight, Active: raw, Avoid: avoid},
		}
		rev, fwd := spf.NewWorkspace(), spf.NewWorkspace()
		for name, opts := range variants {
			finite := 0
			for s := 0; s < g.NumNodes(); s++ {
				src := topo.NodeID(s)
				rev.ReverseTreeForTest(g, src, opts)
				for v := 0; v < g.NumNodes(); v++ {
					from := topo.NodeID(v)
					if from == src {
						continue
					}
					want := math.Inf(1)
					if _, ok := fwd.ShortestPath(g, from, src, opts); ok {
						want = fwd.Dist(src)
						finite++
					}
					if got := rev.Dist(from); got != want {
						t.Fatalf("%s/%s: reverse label of %d from %d = %v, forward distance %v",
							g.Name, name, v, s, got, want)
					}
				}
			}
			if finite == 0 {
				t.Errorf("%s/%s: no connected pair, the comparison is vacuous", g.Name, name)
			}
		}
	}
}
