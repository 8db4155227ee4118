package core

import (
	"math"
	"testing"

	"response/internal/power"
	"response/internal/topo"
	"response/internal/traffic"
)

// twoPathTopo builds A-B direct (10 Mbps) plus A-C-B detour (10 Mbps
// per hop) and hand-crafts tables with the direct path always-on and
// the detour as on-demand.
func twoPathTables(t *testing.T) (*topo.Topology, *Tables, [3]topo.NodeID) {
	t.Helper()
	tp := topo.New("twopath")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	c := tp.AddNode("C", topo.KindRouter)
	tp.AddLink(a, b, 10*topo.Mbps, 0.001)
	tp.AddLink(a, c, 10*topo.Mbps, 0.001)
	tp.AddLink(c, b, 10*topo.Mbps, 0.001)
	ab, _ := tp.ArcBetween(a, b)
	ac, _ := tp.ArcBetween(a, c)
	cb, _ := tp.ArcBetween(c, b)
	direct := topo.Path{Arcs: []topo.ArcID{ab}}
	detour := topo.Path{Arcs: []topo.ArcID{ac, cb}}
	aon := topo.AllOff(tp)
	aon.ActivatePath(tp, direct)
	tb := &Tables{
		Topo: tp,
		Pairs: map[[2]topo.NodeID]*PathSet{
			{a, b}: {AlwaysOn: direct, OnDemand: []topo.Path{detour}, Failover: detour},
		},
		AlwaysOnSet: aon,
		Variant:     "hand",
	}
	return tp, tb, [3]topo.NodeID{a, b, c}
}

func TestEvaluateSplitsAcrossLevels(t *testing.T) {
	tp, tb, n := twoPathTables(t)
	m := power.Cisco12000{}
	// 15 Mbps demand: 9 on the direct path (0.9 ceiling), 6 overflow
	// to the detour.
	tm := traffic.NewMatrix()
	tm.Set(n[0], n[1], 15*topo.Mbps)
	res := tb.Evaluate(tm, m, 0.9)
	placed := res.Placed[[2]topo.NodeID{n[0], n[1]}]
	if math.Abs(placed[0]-9e6) > 1e3 {
		t.Errorf("always-on share = %v, want 9 Mbps", placed[0])
	}
	if math.Abs(placed[1]-6e6) > 1e3 {
		t.Errorf("on-demand share = %v, want 6 Mbps", placed[1])
	}
	if res.Overloaded != 0 {
		t.Errorf("overloaded = %d", res.Overloaded)
	}
	if res.LevelUse[0] != 1 || res.LevelUse[1] != 1 {
		t.Errorf("level use = %v", res.LevelUse)
	}
	// Both paths active → all three routers, all three links on.
	r, l := res.Active.CountOn()
	if r != 3 || l != 3 {
		t.Errorf("active = %d routers %d links", r, l)
	}
	if res.MaxUtil > 0.9+1e-9 {
		t.Errorf("max util %v exceeds ceiling", res.MaxUtil)
	}
	_ = tp
}

func TestEvaluateLowLoadKeepsDetourDark(t *testing.T) {
	_, tb, n := twoPathTables(t)
	m := power.Cisco12000{}
	tm := traffic.NewMatrix()
	tm.Set(n[0], n[1], 2*topo.Mbps)
	res := tb.Evaluate(tm, m, 0.9)
	if res.LevelUse[1] != 0 {
		t.Error("on-demand used at low load")
	}
	// Router C must be dark: only the always-on direct path is active.
	if res.Active.Router[n[2]] {
		t.Error("detour router powered at low load")
	}
}

func TestEvaluateOverloadFallback(t *testing.T) {
	_, tb, n := twoPathTables(t)
	m := power.Cisco12000{}
	// 30 Mbps cannot fit even on both paths (9+9 at 0.9): the excess
	// rides the last level over the ceiling and the demand is counted
	// overloaded.
	tm := traffic.NewMatrix()
	tm.Set(n[0], n[1], 30*topo.Mbps)
	res := tb.Evaluate(tm, m, 0.9)
	if res.Overloaded != 1 {
		t.Errorf("overloaded = %d, want 1", res.Overloaded)
	}
	if res.MaxUtil <= 1 {
		t.Errorf("max util %v should exceed 1 under overload", res.MaxUtil)
	}
	total := 0.0
	for _, amt := range res.Placed[[2]topo.NodeID{n[0], n[1]}] {
		total += amt
	}
	if math.Abs(total-30e6) > 1e3 {
		t.Errorf("placed %v, want the full 30 Mbps (run hot, not drop)", total)
	}
}
