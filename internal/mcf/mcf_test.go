package mcf

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"response/internal/lp"
	"response/internal/power"
	"response/internal/topo"
	"response/internal/traffic"
)

// diamond: A-{B,C}-D with 10 Mbps links.
func diamond(t *testing.T) (*topo.Topology, [4]topo.NodeID) {
	t.Helper()
	tp := topo.New("diamond")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	c := tp.AddNode("C", topo.KindRouter)
	d := tp.AddNode("D", topo.KindRouter)
	tp.AddLink(a, b, 10*topo.Mbps, 0.001)
	tp.AddLink(a, c, 10*topo.Mbps, 0.001)
	tp.AddLink(b, d, 10*topo.Mbps, 0.001)
	tp.AddLink(c, d, 10*topo.Mbps, 0.001)
	return tp, [4]topo.NodeID{a, b, c, d}
}

// maxUtil returns a routing's maximum load/capacity over all arcs.
func maxUtil(r *Routing, t *topo.Topology) float64 {
	var mx float64
	for i, l := range r.Load {
		mx = math.Max(mx, l/t.Arc(topo.ArcID(i)).Capacity)
	}
	return mx
}

func TestRouteDemandsSimple(t *testing.T) {
	tp, n := diamond(t)
	demands := []traffic.Demand{{O: n[0], D: n[3], Rate: 5 * topo.Mbps}}
	r, err := RouteDemands(tp, demands, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(tp, demands); err != nil {
		t.Fatal(err)
	}
	p, ok := r.Path(n[0], n[3])
	if !ok || p.Len() != 2 {
		t.Errorf("path = %v", p)
	}
}

func TestRouteDemandsSplitsAcrossDiamond(t *testing.T) {
	tp, n := diamond(t)
	// Two 8 Mbps flows A->D cannot share one 10 Mbps side.
	demands := []traffic.Demand{
		{O: n[0], D: n[3], Rate: 8 * topo.Mbps},
		{O: n[1], D: n[2], Rate: 8 * topo.Mbps},
	}
	r, err := RouteDemands(tp, demands, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if u := maxUtil(r, tp); u > 1+1e-9 {
		t.Errorf("max utilization %v > 1", u)
	}
}

func TestRouteDemandsInfeasible(t *testing.T) {
	tp, n := diamond(t)
	demands := []traffic.Demand{{O: n[0], D: n[3], Rate: 11 * topo.Mbps}}
	_, err := RouteDemands(tp, demands, RouteOpts{})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestRouteDemandsMaxUtil(t *testing.T) {
	tp, n := diamond(t)
	demands := []traffic.Demand{{O: n[0], D: n[3], Rate: 6 * topo.Mbps}}
	if _, err := RouteDemands(tp, demands, RouteOpts{MaxUtil: 0.5}); err == nil {
		t.Error("6 Mbps should not fit under 50% ceiling on 10 Mbps links")
	}
	if _, err := RouteDemands(tp, demands, RouteOpts{MaxUtil: 0.7}); err != nil {
		t.Errorf("6 Mbps should fit under 70%%: %v", err)
	}
}

func TestRouteDemandsActiveRestriction(t *testing.T) {
	tp, n := diamond(t)
	active := topo.AllOn(tp)
	bd, _ := tp.ArcBetween(n[1], n[3])
	active.Link[tp.Arc(bd).Link] = false
	demands := []traffic.Demand{{O: n[0], D: n[3], Rate: 1 * topo.Mbps}}
	r, err := RouteDemands(tp, demands, RouteOpts{Active: active})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := r.Path(n[0], n[3])
	if slices.Contains(p.Nodes(tp), n[1]) {
		t.Error("path used powered-off side")
	}
}

// Property: any successful routing respects capacity on every arc and
// conserves path endpoints.
func TestRouteDemandsCapacityProperty(t *testing.T) {
	tp, n := diamond(t)
	f := func(r1, r2, r3 uint8) bool {
		demands := []traffic.Demand{
			{O: n[0], D: n[3], Rate: float64(r1) * 100e3},
			{O: n[1], D: n[2], Rate: float64(r2) * 100e3},
			{O: n[3], D: n[0], Rate: float64(r3) * 100e3},
		}
		r, err := RouteDemands(tp, demands, RouteOpts{})
		if err != nil {
			return true // infeasible is a legal outcome
		}
		for _, a := range tp.Arcs() {
			if r.Load[a.ID] > a.Capacity+1e-6 {
				return false
			}
		}
		return r.Validate(tp, demands) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGreedyMinSubsetTurnsThingsOff(t *testing.T) {
	tp, n := diamond(t)
	m := power.Cisco12000{}
	demands := []traffic.Demand{{O: n[0], D: n[3], Rate: 1 * topo.Mbps}}
	active, routing, err := GreedyMinSubset(tp, demands, m, GreedyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.Validate(tp, demands); err != nil {
		t.Fatal(err)
	}
	_, links := active.CountOn()
	if links > 2 {
		t.Errorf("links on = %d, want <= 2 (single path suffices)", links)
	}
	// The routed path must be active.
	p, _ := routing.Path(n[0], n[3])
	if !p.ActiveUnder(tp, active) {
		t.Error("routing uses powered-off elements")
	}
	// Power must not exceed the full network's.
	if power.NetworkWatts(tp, m, active) > power.FullWatts(tp, m) {
		t.Error("subset draws more than full network")
	}
}

func TestGreedyRespectsKeepOn(t *testing.T) {
	tp, n := diamond(t)
	m := power.Cisco12000{}
	keep := topo.AllOff(tp)
	keep.Router[n[1]] = true
	bd, _ := tp.ArcBetween(n[1], n[3])
	keep.Link[tp.Arc(bd).Link] = true
	demands := []traffic.Demand{{O: n[0], D: n[3], Rate: 1 * topo.Mbps}}
	active, _, err := GreedyMinSubset(tp, demands, m, GreedyOpts{KeepOn: keep})
	if err != nil {
		t.Fatal(err)
	}
	if !active.Router[n[1]] || !active.Link[tp.Arc(bd).Link] {
		t.Error("KeepOn violated")
	}
}

func TestOptimalNotWorseThanGreedy(t *testing.T) {
	g := topo.NewGeant()
	m := power.Cisco12000{}
	tm := traffic.Gravity(g, traffic.GravityOpts{TotalRate: 2 * topo.Gbps})
	demands := tm.Demands()
	ga, _, err := GreedyMinSubset(g, demands, m, GreedyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	oa, _, err := OptimalSubset(g, demands, m, OptimalOpts{RandomRestarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	gw := power.NetworkWatts(g, m, ga)
	ow := power.NetworkWatts(g, m, oa)
	if ow > gw+1e-6 {
		t.Errorf("optimal %v > greedy %v", ow, gw)
	}
}

// TestGreedyMatchesExactMILP cross-checks the heuristic against the
// branch-and-bound optimum on a small instance.
func TestGreedyMatchesExactMILP(t *testing.T) {
	tp, n := diamond(t)
	m := power.Cisco12000{}
	demands := []traffic.Demand{
		{O: n[0], D: n[3], Rate: 2 * topo.Mbps},
		{O: n[1], D: n[0], Rate: 1 * topo.Mbps},
	}
	mi := BuildMILP(tp, demands, m, MILPOpts{})
	exActive, exRouting, exObj, err := mi.SolveExact(lp.MIPOpts{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if err := exRouting.Validate(tp, demands); err != nil {
		t.Fatal(err)
	}
	if got := power.NetworkWatts(tp, m, exActive); math.Abs(got-exObj) > 1e-6 {
		t.Errorf("objective %v vs active-set power %v", exObj, got)
	}
	ha, _, err := OptimalSubset(tp, demands, m, OptimalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hw := power.NetworkWatts(tp, m, ha)
	if hw < exObj-1e-6 {
		t.Errorf("heuristic %v beat the proven optimum %v — exact solver broken", hw, exObj)
	}
	if Gap(hw, exObj) > 0.15 {
		t.Errorf("heuristic gap %.1f%% too large (heuristic %v, exact %v)",
			100*Gap(hw, exObj), hw, exObj)
	}
}

func TestLowerBoundIsBound(t *testing.T) {
	tp, n := diamond(t)
	m := power.Cisco12000{}
	demands := []traffic.Demand{{O: n[0], D: n[3], Rate: 2 * topo.Mbps}}
	lb, err := LowerBound(tp, demands, m, MILPOpts{})
	if err != nil {
		t.Fatal(err)
	}
	active, _, err := OptimalSubset(tp, demands, m, OptimalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if w := power.NetworkWatts(tp, m, active); w < lb-1e-6 {
		t.Errorf("heuristic %v below LP bound %v", w, lb)
	}
}

func TestKShortestSubsetFeasibleAndSparse(t *testing.T) {
	g := topo.NewGeant()
	m := power.Cisco12000{}
	tm := traffic.Gravity(g, traffic.GravityOpts{TotalRate: 2 * topo.Gbps})
	demands := tm.Demands()
	active, routing, err := KShortestSubset(g, demands, m, KShortOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.Validate(g, demands); err != nil {
		t.Fatal(err)
	}
	if maxUtil(routing, g) > 1+1e-9 {
		t.Error("overloaded")
	}
	_, links := active.CountOn()
	if links >= g.NumLinks() {
		t.Error("heuristic never sleeps anything")
	}
	for _, p := range routing.Paths {
		if !p.ActiveUnder(g, active) {
			t.Fatal("path over inactive elements")
		}
	}
}

func TestKShortestSubsetInfeasible(t *testing.T) {
	tp, n := diamond(t)
	m := power.Cisco12000{}
	demands := []traffic.Demand{{O: n[0], D: n[3], Rate: 25 * topo.Mbps}}
	if _, _, err := KShortestSubset(tp, demands, m, KShortOpts{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v", err)
	}
}

func TestCandidatePathsReuse(t *testing.T) {
	tp, n := diamond(t)
	demands := []traffic.Demand{{O: n[0], D: n[3], Rate: topo.Mbps}}
	cands := CandidatePaths(tp, demands, 3)
	if len(cands[[2]topo.NodeID{n[0], n[3]}]) != 2 {
		t.Errorf("diamond has 2 simple paths, got %d", len(cands[[2]topo.NodeID{n[0], n[3]}]))
	}
	m := power.Cisco12000{}
	if _, _, err := KShortestSubset(tp, demands, m, KShortOpts{Paths: cands}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFeasibleScale(t *testing.T) {
	tp, n := diamond(t)
	base := traffic.NewMatrix()
	base.Set(n[0], n[3], 1*topo.Mbps)
	s := MaxFeasibleScale(tp, base, RouteOpts{}, 0.01)
	// A->D can use both sides of the diamond... unsplittably only one:
	// 10 Mbps max → scale ≈ 10.
	if s < 9 || s > 11 {
		t.Errorf("scale = %v, want ≈10", s)
	}
	empty := traffic.NewMatrix()
	empty.Set(n[0], n[3], 100*topo.Mbps)
	if s := MaxFeasibleScale(tp, empty, RouteOpts{}, 0.01); s > 0.11 {
		t.Errorf("overloaded base should scale below 0.11, got %v", s)
	}
}

func TestUsedElements(t *testing.T) {
	tp, n := diamond(t)
	demands := []traffic.Demand{{O: n[0], D: n[3], Rate: topo.Mbps}}
	r, err := RouteDemands(tp, demands, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	used := r.UsedElements(tp)
	routers, links := used.CountOn()
	if routers != 3 || links != 2 {
		t.Errorf("used = %d routers %d links, want 3/2", routers, links)
	}
}

func TestUnassign(t *testing.T) {
	tp, n := diamond(t)
	r := NewRouting(tp)
	ab, _ := tp.ArcBetween(n[0], n[1])
	p := topo.Path{Arcs: []topo.ArcID{ab}}
	r.Assign(n[0], n[1], p, 100)
	if r.Load[ab] != 100 {
		t.Fatal("assign load")
	}
	r.Unassign(n[0], n[1], 100)
	if r.Load[ab] != 0 {
		t.Error("unassign load")
	}
	if _, ok := r.Path(n[0], n[1]); ok {
		t.Error("path not removed")
	}
	r.Unassign(n[0], n[1], 100) // no-op on missing
}
