package mcf

import (
	"runtime"
	"slices"
	"testing"

	"response/internal/power"
	"response/internal/spf"
	"response/internal/topo"
	"response/internal/traffic"
)

// TestWarmFromColdIsIdentical is the warm-start exactness property: in
// the capacity-slack regime, re-running the subset search warm-started
// from its own cold result with unchanged inputs must reproduce the
// cold result bit-for-bit — same active set, same routing, same power.
// The cold result is locally minimal (every removal was tried and
// rejected at a superset, and a rejection at a superset implies
// rejection at any subset), so the warm descent removes nothing and
// the deterministic re-solve reproduces the routing.
func TestWarmFromColdIsIdentical(t *testing.T) {
	m := power.Cisco12000{}
	for name, tp := range equivTopologies(t) {
		demands := demandSets(t, tp)["epsilon"]
		cold := OptimalOpts{Seed: 11}
		aCold, rCold, err := OptimalSubset(tp, demands, m, cold)
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		warm := cold
		warm.Warm = &WarmStart{Active: aCold}
		aWarm, rWarm, err := OptimalSubset(tp, demands, m, warm)
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		if !aWarm.Equal(aCold) {
			t.Errorf("%s: warm active set differs from cold: warm=%v cold=%v", name, aWarm, aCold)
		}
		if got, want := power.NetworkWatts(tp, m, aWarm), power.NetworkWatts(tp, m, aCold); got != want {
			t.Errorf("%s: warm watts %v != cold %v", name, got, want)
		}
		if !routingsEqual(rWarm, rCold) {
			t.Errorf("%s: warm routing differs from cold", name)
		}
		if aWarm.Fingerprint() != aCold.Fingerprint() {
			t.Errorf("%s: warm fingerprint differs from cold", name)
		}
	}
}

// TestWarmFromColdIsIdenticalKeepOn covers the pinned-elements path the
// planner's on-demand rounds use (always-on X/Y carried over).
func TestWarmFromColdIsIdenticalKeepOn(t *testing.T) {
	m := power.Cisco12000{}
	tp := topo.NewGeant()
	demands := demandSets(t, tp)["epsilon"]
	keep, _, err := GreedyMinSubset(tp, demands, m, GreedyOpts{Order: PowerDesc})
	if err != nil {
		t.Fatal(err)
	}
	cold := OptimalOpts{Seed: 2, KeepOn: keep}
	aCold, rCold, err := OptimalSubset(tp, demands, m, cold)
	if err != nil {
		t.Fatal(err)
	}
	warm := cold
	warm.Warm = &WarmStart{Active: aCold}
	aWarm, rWarm, err := OptimalSubset(tp, demands, m, warm)
	if err != nil {
		t.Fatal(err)
	}
	if !aWarm.Equal(aCold) {
		t.Errorf("warm active set differs from cold under KeepOn")
	}
	if !routingsEqual(rWarm, rCold) {
		t.Errorf("warm routing differs from cold under KeepOn")
	}
}

// TestWarmDeterministicAcrossGOMAXPROCS pins that warm-started searches
// — including ones that do real descent work from a perturbed seed and
// ones that reject the seed and fall back to the cold restart pool —
// return bit-identical results regardless of parallelism.
func TestWarmDeterministicAcrossGOMAXPROCS(t *testing.T) {
	m := power.Cisco12000{}
	tp := topo.NewGeant()
	demands := demandSets(t, tp)["epsilon"]
	aCold, _, err := OptimalSubset(tp, demands, m, OptimalOpts{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]*WarmStart{
		"from-cold":   {Active: aCold},
		"from-all-on": {Active: topo.AllOn(tp), Tolerance: -1},
		"fallback":    {Active: topo.AllOff(tp)}, // unusable: forces the cold pool
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for name, seed := range seeds {
		var first *topo.ActiveSet
		var firstRouting *Routing
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			a, r, err := OptimalSubset(tp, demands, m, OptimalOpts{Seed: 5, Warm: seed})
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", name, procs, err)
			}
			if first == nil {
				first, firstRouting = a, r
				continue
			}
			if !a.Equal(first) {
				t.Errorf("%s: active set differs at GOMAXPROCS=%d", name, procs)
			}
			if !routingsEqual(r, firstRouting) {
				t.Errorf("%s: routing differs at GOMAXPROCS=%d", name, procs)
			}
		}
	}
}

// TestWarmSeedRejectionFallsBackToCold pins the tolerance gate: a seed
// whose repaired power blows past the tolerance (an all-off set has
// zero seed power, so any feasible result misses the gate) must yield
// exactly the cold result — the restart pool runs as if Warm were nil.
func TestWarmSeedRejectionFallsBackToCold(t *testing.T) {
	m := power.Cisco12000{}
	tp := topo.NewGeant()
	demands := demandSets(t, tp)["epsilon"]
	aCold, rCold, err := OptimalSubset(tp, demands, m, OptimalOpts{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	aWarm, rWarm, err := OptimalSubset(tp, demands, m, OptimalOpts{
		Seed: 9, Warm: &WarmStart{Active: topo.AllOff(tp)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !aWarm.Equal(aCold) {
		t.Errorf("rejected seed did not fall back to the cold result")
	}
	if !routingsEqual(rWarm, rCold) {
		t.Errorf("rejected seed: routing differs from cold")
	}
}

// TestWarmOutsideSlackStaysWithinTolerance covers the capacity-binding
// regime, where fingerprint identity is not provable: the warm result
// must still be a valid routing and honor the documented power gate —
// it is either the seed descended (≤ (1+tol) × seed power) or the cold
// result after fallback.
func TestWarmOutsideSlackStaysWithinTolerance(t *testing.T) {
	m := power.Cisco12000{}
	for name, tp := range equivTopologies(t) {
		demands, ok := demandSets(t, tp)["tight"]
		if !ok {
			continue
		}
		cold := OptimalOpts{Seed: 21}
		aCold, _, err := OptimalSubset(tp, demands, m, cold)
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		warm := cold
		warm.Warm = &WarmStart{Active: aCold}
		aWarm, rWarm, err := OptimalSubset(tp, demands, m, warm)
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		if err := rWarm.Validate(tp, demands); err != nil {
			t.Errorf("%s: warm routing invalid: %v", name, err)
		}
		seedW := power.NetworkWatts(tp, m, aCold)
		warmW := power.NetworkWatts(tp, m, aWarm)
		if warmW > (1+DefaultWarmTolerance)*seedW+1e-9 {
			t.Errorf("%s: warm watts %v above tolerance of seed %v", name, warmW, seedW)
		}
	}
}

// TestHopelessLinksSoundness checks the dominance pruning never skips
// an acceptable candidate: every link flagged hopeless must actually
// disconnect some routed pair when removed, i.e. the reference
// feasibility solve fails without it.
func TestHopelessLinksSoundness(t *testing.T) {
	m := power.Cisco12000{}
	for name, tp := range equivTopologies(t) {
		demands := demandSets(t, tp)["epsilon"]
		sorted := sortDemands(demands)
		active, routing, err := GreedyMinSubset(tp, demands, m, GreedyOpts{Order: PowerDesc})
		if err != nil {
			t.Fatal(err)
		}
		hopeless := hopelessLinks(tp, active, routing)
		for l, bad := range hopeless {
			if !bad {
				continue
			}
			trial := active.Clone()
			trial.Link[l] = false
			trial.EnforceInvariants(tp)
			ro := RouteOpts{Active: trial}
			if _, err := routeDemandsSorted(tp, sorted, ro, spf.NewWorkspace()); err == nil {
				t.Errorf("%s: link %d flagged hopeless but removal still routes", name, l)
			}
		}
	}
}

// TestRepairSeesGrownHint is the stale-graph regression of the
// compiled pass graph: both demands are disconnected on the warm hint
// (their source router is off), the first one's full-network path wakes
// a→b→c, and the second must then route over those woken elements —
// a→b→c→e, not its shorter full-network path a→e. A hint graph that is
// not recompiled after ActivatePath still sees a powered off, sends the
// second demand to the full network too, and wakes the a–e link.
func TestRepairSeesGrownHint(t *testing.T) {
	tp := topo.New("grown-hint")
	a := tp.AddNode("a", topo.KindRouter)
	b := tp.AddNode("b", topo.KindRouter)
	c := tp.AddNode("c", topo.KindRouter)
	e := tp.AddNode("e", topo.KindRouter)
	tp.AddLink(a, b, topo.Gbps, 1e-3)
	tp.AddLink(b, c, topo.Gbps, 1e-3)
	ce := tp.AddLink(c, e, topo.Gbps, 1e-3)
	ae := tp.AddLink(a, e, topo.Gbps, 2.5e-3)
	sorted := sortDemands([]traffic.Demand{
		{O: a, D: e, Rate: 1},
		{O: a, D: c, Rate: 2},
	})
	hint := topo.AllOff(tp)
	hint.Router[c], hint.Router[e], hint.Link[ce] = true, true, true

	s := newSubsetSearch(tp, sorted, power.Cisco12000{}, OptimalOpts{})
	r, fresh, err := s.repair(hint, spf.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if fresh {
		t.Fatal("repair reported a from-scratch solve on a hint it had to grow")
	}
	arc := func(from, to topo.NodeID) topo.ArcID {
		id, ok := tp.ArcBetween(from, to)
		if !ok {
			t.Fatalf("no arc %d->%d", from, to)
		}
		return id
	}
	want := []topo.ArcID{arc(a, b), arc(b, c), arc(c, e)}
	if got, _ := r.Path(a, e); !slices.Equal(got.Arcs, want) {
		t.Fatalf("a→e routed on %v, want the grown hint's %v", got.Arcs, want)
	}
	if hint.Link[ae] {
		t.Error("repair woke the a–e link: the second demand was routed on the full network")
	}
}
