package spf_test

// Differential oracle for the compiled load-aware kernel: the closure
// form it replaced (mcf's former loadAwareOptions, answered by the
// generic Workspace.ShortestPath) is kept here as the reference, and
// every query must return the byte-equal arc sequence and the same
// found / not-found verdict — equal-cost ties included, which is what
// keeps the pinned plan fingerprints where they are.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"response/internal/spf"
	"response/internal/topo"
	"response/internal/topogen"
)

// loadAwareReference is the deleted closure form: capacity-pruning,
// load-penalized weight over a live load vector, *rate selecting the
// demand being placed.
func loadAwareReference(active *topo.ActiveSet, avoid func(topo.Arc) bool, base spf.WeightFunc,
	maxUtil, penalty float64, load []float64, rate *float64) spf.Options {

	if base == nil {
		base = func(a topo.Arc) float64 { return a.Latency }
	}
	return spf.Options{
		Active: active,
		Avoid:  avoid,
		Weight: func(a topo.Arc) float64 {
			capa := a.Capacity * maxUtil
			if load[a.ID]+*rate > capa+1e-9 {
				return math.Inf(1) // would overflow: prune
			}
			util := load[a.ID] / capa
			return base(a) * (1 + penalty*util)
		},
	}
}

// hostileWeight is a base weight that is +Inf, negative and NaN on
// some arcs and a tie-breaking perturbation of latency elsewhere.
func hostileWeight(a topo.Arc) float64 {
	switch a.ID % 11 {
	case 0:
		return math.Inf(1)
	case 1:
		return -a.Latency
	case 2:
		return math.NaN()
	}
	return a.Latency * (1 + 0.25*float64(a.ID%3))
}

// randomActive powers off roughly one link in five and one router in
// eight. With enforce the model invariants are applied (the planner's
// shape); without, the raw set keeps links into dead routers and
// isolated routers — the kernel's filters must agree there too.
func randomActive(g *topo.Topology, rng *rand.Rand, enforce bool) *topo.ActiveSet {
	a := topo.AllOn(g)
	for l := range a.Link {
		if rng.Intn(5) == 0 {
			a.Link[l] = false
		}
	}
	for _, n := range g.Nodes() {
		if n.Kind != topo.KindHost && rng.Intn(8) == 0 {
			a.Router[n.ID] = false
		}
	}
	if enforce {
		a.EnforceInvariants(g)
	}
	return a
}

// randomLoad fills a load vector against capacity × maxUtil: a quarter
// of the arcs idle, a quarter saturated (at or just past the cap), the
// rest partially loaded.
func randomLoad(g *topo.Topology, rng *rand.Rand, maxUtil float64) []float64 {
	load := make([]float64, g.NumArcs())
	for i, a := range g.Arcs() {
		capa := a.Capacity * maxUtil
		switch rng.Intn(4) {
		case 0:
		case 1:
			load[i] = capa * (1 + 1e-3*float64(rng.Intn(2)))
		default:
			load[i] = capa * rng.Float64()
		}
	}
	return load
}

// diffLoadKernel runs one pass shape — fixed active set, avoid set and
// base weight — through the kernel and the reference under the three
// ladder penalties, placing each found path on the shared load vector
// the way a routing pass does, and fails on the first divergence.
func diffLoadKernel(t testing.TB, g *topo.Topology, active *topo.ActiveSet,
	avoid func(topo.Arc) bool, base spf.WeightFunc, pairs [][2]topo.NodeID, rng *rand.Rand) {

	t.Helper()
	maxUtil := []float64{1.0, 0.7}[rng.Intn(2)]
	minCap := math.Inf(1)
	for _, a := range g.Arcs() {
		minCap = math.Min(minCap, a.Capacity)
	}
	kernelWS, refWS := spf.NewWorkspace(), spf.NewWorkspace()
	lg := kernelWS.LoadGraph()
	lg.Compile(g, active, avoid, base, maxUtil)
	for _, penalty := range []float64{3, 12, 0} {
		load := randomLoad(g, rng, maxUtil)
		var rate float64
		ref := loadAwareReference(active, avoid, base, maxUtil, penalty, load, &rate)
		for _, pair := range pairs {
			o, d := pair[0], pair[1]
			// 5e-10 sits inside the prune tolerance: on a unit-capacity
			// arc loaded exactly to its cap it must still be admitted.
			rate = []float64{5e-10, minCap * 1e-4, minCap * 0.05, minCap * 0.4}[rng.Intn(4)]
			want, wantOK := refWS.ShortestPath(g, o, d, ref)
			got, gotOK := kernelWS.ShortestPathLoad(g, lg, o, d, load, rate, penalty)
			if gotOK != wantOK || !slices.Equal(got.Arcs, want.Arcs) {
				t.Fatalf("%s %v→%v penalty %g maxUtil %g rate %g: kernel diverged\nref %v (%v)\ngot %v (%v)",
					g.Name, o, d, penalty, maxUtil, rate, want.Arcs, wantOK, got.Arcs, gotOK)
			}
			for _, aid := range got.Arcs {
				load[aid] += rate
			}
		}
	}
}

// anyPairs samples ordered pairs over every node, hosts and transit
// routers alike, so sources that are powered off and targets that are
// unreachable both occur.
func anyPairs(g *topo.Topology, rng *rand.Rand, n int) [][2]topo.NodeID {
	out := make([][2]topo.NodeID, 0, n)
	for len(out) < n {
		o, d := topo.NodeID(rng.Intn(g.NumNodes())), topo.NodeID(rng.Intn(g.NumNodes()))
		if o != d {
			out = append(out, [2]topo.NodeID{o, d})
		}
	}
	return out
}

func randomAvoid(g *topo.Topology, rng *rand.Rand) func(topo.Arc) bool {
	avoided := make([]bool, g.NumLinks())
	for l := range avoided {
		avoided[l] = rng.Intn(7) == 0
	}
	return func(a topo.Arc) bool { return avoided[a.Link] }
}

// unitRing is a ring of unit-capacity, equal-latency routers — small
// enough capacities that the 1e-9 prune tolerance is representable —
// with a dual-homed host offering a shortcut across it that no path may
// take, and a single-homed host as a legal endpoint.
func unitRing() *topo.Topology {
	g := topo.New("unit-ring")
	var r [6]topo.NodeID
	for i := range r {
		r[i] = g.AddNode(string(rune('a'+i)), topo.KindRouter)
	}
	for i := range r {
		g.AddLink(r[i], r[(i+1)%len(r)], 1, 1e-3)
	}
	shortcut := g.AddNode("h-shortcut", topo.KindHost)
	g.AddLink(shortcut, r[0], 1, 1e-5)
	g.AddLink(shortcut, r[3], 1, 1e-5)
	leaf := g.AddNode("h-leaf", topo.KindHost)
	g.AddLink(leaf, r[1], 1, 1e-5)
	return g
}

func TestLoadKernelMatchesReference(t *testing.T) {
	ft, err := topo.NewFatTree(4, topo.FatTreeOpts{WithHosts: true})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*topo.Topology{
		ft.Topology, // tie-saturated
		genTopo(t, topogen.FamilyWaxman, 30, 1).Topo,
		genTopo(t, topogen.FamilyWaxman, 30, 2).Topo,
		topo.NewGeant(),
		unitRing(),
	}
	for _, g := range graphs {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed * 7919))
			pairs := anyPairs(g, rng, 40)
			// The source router of the first pair is off in sourceOff.
			sourceOff := topo.AllOn(g)
			for _, pair := range pairs {
				if g.Node(pair[0]).Kind != topo.KindHost {
					sourceOff.Router[pair[0]] = false
					pairs[0] = pair
					break
				}
			}
			actives := []*topo.ActiveSet{
				nil, randomActive(g, rng, true), randomActive(g, rng, false), sourceOff,
			}
			for _, active := range actives {
				for _, avoid := range []func(topo.Arc) bool{nil, randomAvoid(g, rng)} {
					for _, base := range []spf.WeightFunc{nil, hostileWeight} {
						diffLoadKernel(t, g, active, avoid, base, pairs, rng)
					}
				}
			}
		}
	}
}

// TestLoadGraphRecompile pins the snapshot contract: a graph compiled
// before the active set grew does not see the new elements, and the
// recompiled one does — in the same buffers.
func TestLoadGraphRecompile(t *testing.T) {
	g := topo.New("line")
	a := g.AddNode("a", topo.KindCore)
	b := g.AddNode("b", topo.KindCore)
	c := g.AddNode("c", topo.KindCore)
	g.AddLink(a, b, topo.Gbps, 1e-3)
	bc := g.AddLink(b, c, topo.Gbps, 1e-3)
	active := topo.AllOn(g)
	active.Link[bc] = false
	ws := spf.NewWorkspace()
	load := make([]float64, g.NumArcs())
	lg := ws.LoadGraph()
	lg.Compile(g, active, nil, nil, 1)
	if _, ok := ws.ShortestPathLoad(g, lg, a, c, load, 1, 3); ok {
		t.Fatal("path found over a powered-off link")
	}
	active.Link[bc] = true
	if _, ok := ws.ShortestPathLoad(g, lg, a, c, load, 1, 3); ok {
		t.Fatal("stale graph saw an element activated after Compile")
	}
	lg.Compile(g, active, nil, nil, 1)
	if p, ok := ws.ShortestPathLoad(g, lg, a, c, load, 1, 3); !ok || len(p.Arcs) != 2 {
		t.Fatalf("recompiled graph: path %v found %v, want the 2-arc line", p.Arcs, ok)
	}
}
