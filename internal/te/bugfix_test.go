package te

import (
	"math"
	"testing"

	"response/internal/sim"
	"response/internal/topo"
)

// evacTopo builds a two-path topology tuned so a probe is in flight
// when a failure notification lands: link latency 0.1 s makes the
// probe RTT (0.4 s) exceed failure detect+propagate (0.11 s), and a
// 1 s wake keeps the evacuation pending while the probe delivers.
func evacTopo(t *testing.T) (*sim.Simulator, *Controller, *sim.Flow, topo.LinkID) {
	t.Helper()
	tp := topo.New("evac")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	c := tp.AddNode("C", topo.KindRouter)
	direct := tp.AddLink(a, b, 10*topo.Mbps, 0.1)
	tp.AddLink(a, c, 10*topo.Mbps, 0.1)
	tp.AddLink(c, b, 10*topo.Mbps, 0.1)
	ab, _ := tp.ArcBetween(a, b)
	ac, _ := tp.ArcBetween(a, c)
	cb, _ := tp.ArcBetween(c, b)
	s := sim.New(tp, sim.Opts{
		WakeUpDelay:      1,
		SleepAfterIdle:   0.05,
		FailureDetect:    0.05,
		FailurePropagate: 0.06,
	})
	ctrl := NewController(s, Opts{Threshold: 0.9, Period: 0.4})
	f, err := s.AddFlow(a, b, 5*topo.Mbps, []topo.Path{
		{Arcs: []topo.ArcID{ab}},
		{Arcs: []topo.ArcID{ac, cb}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Manage(f)
	return s, ctrl, f, direct
}

// TestNoDoubleEvacuation is the regression test for the double
// evacuation bug: the failure handler evacuates the failed primary and
// books a wake-then-shift; the probe that was in flight when the
// failure landed then also sees the failed primary and must NOT book a
// second wake-then-shift for the same level.
func TestNoDoubleEvacuation(t *testing.T) {
	s, ctrl, f, direct := evacTopo(t)
	ctrl.Start()
	s.Run(2) // failover path (idle) falls asleep; probes cycle
	if s.PathPhase(f.Paths[1]) != sim.LinkSleeping {
		t.Fatalf("failover phase = %v, want sleeping", s.PathPhase(f.Paths[1]))
	}
	// Fail the primary just after a probe snapshot left the source.
	s.Schedule(2.01, func() { s.FailLink(direct) })
	s.Run(5)
	if f.ShareOf(0) > 1e-9 || math.Abs(f.ShareOf(1)-1) > 1e-9 {
		t.Fatalf("shares after evacuation = %v / %v, want 0 / 1", f.ShareOf(0), f.ShareOf(1))
	}
	// One evacuation: one wake, one applied shift. Before the guard,
	// the probe backstop booked a second wake+shift for the same level
	// (Wakes=2) and double-counted the evacuation decision.
	if ctrl.Wakes != 1 {
		t.Errorf("Wakes = %d, want 1 (no double-booked evacuation)", ctrl.Wakes)
	}
	if ctrl.Shifts != 1 {
		t.Errorf("Shifts = %d, want 1", ctrl.Shifts)
	}
	if math.Abs(f.Rate()-5*topo.Mbps) > 1e3 {
		t.Errorf("rate after failover = %v, want 5 Mbps", f.Rate())
	}
}

// TestEvacuationRetriesAfterDeadTarget: the pending mark must clear
// when a booked evacuation dies (target fails before its wake
// completes), so the probe backstop can still rescue the flow later.
func TestEvacuationRetriesAfterDeadTarget(t *testing.T) {
	s, ctrl, f, direct := evacTopo(t)
	// Third path so there is a second escape route.
	ctrl.Start()
	s.Run(2)
	var detour topo.LinkID
	for _, l := range s.T.Links() {
		if l.ID != direct {
			detour = l.ID // fail one leg of the failover path
			break
		}
	}
	s.Schedule(2.01, func() { s.FailLink(direct) })
	// Kill the failover while its wake is in flight (wake takes 1 s).
	s.Schedule(2.5, func() { s.FailLink(detour) })
	s.Run(3.0)
	if f.Rate() != 0 {
		t.Fatalf("rate = %v, want 0 (both paths dead)", f.Rate())
	}
	// Repair the failover leg: probes must be able to book a fresh
	// evacuation (the pending mark cleared when the first one died).
	s.Schedule(3.1, func() { s.RepairLink(detour) })
	s.Run(8)
	if f.ShareOf(0) > 1e-9 {
		t.Errorf("share still on dead primary: %v", f.ShareOf(0))
	}
	if math.Abs(f.Rate()-5*topo.Mbps) > 1e3 {
		t.Errorf("rate after retry = %v, want 5 Mbps", f.Rate())
	}
}

// TestConsolidationBudget is the regression test for the consolidation
// loop bug: the pass must stop once the movable-rate budget is spent,
// and the total share moved down in one decision must keep the primary
// under Threshold×lowWater.
func TestConsolidationBudget(t *testing.T) {
	tp := topo.New("consolidate")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	c := tp.AddNode("C", topo.KindRouter)
	d := tp.AddNode("D", topo.KindRouter)
	tp.AddLink(a, b, 10*topo.Mbps, 0.001)
	tp.AddLink(a, c, 10*topo.Mbps, 0.001)
	tp.AddLink(c, b, 10*topo.Mbps, 0.001)
	tp.AddLink(a, d, 10*topo.Mbps, 0.001)
	tp.AddLink(d, b, 10*topo.Mbps, 0.001)
	ab, _ := tp.ArcBetween(a, b)
	ac, _ := tp.ArcBetween(a, c)
	cb, _ := tp.ArcBetween(c, b)
	ad, _ := tp.ArcBetween(a, d)
	db, _ := tp.ArcBetween(d, b)
	s := sim.New(tp, sim.Opts{SleepAfterIdle: 1e9})
	// Gamma 1 so a single decision moves the full budget (the cap, not
	// the damping, must be what protects the low-water promise).
	ctrl := NewController(s, Opts{Threshold: 0.9, Gamma: 1})
	f, err := s.AddFlow(a, b, 9.5*topo.Mbps, []topo.Path{
		{Arcs: []topo.ArcID{ab}},
		{Arcs: []topo.ArcID{ac, cb}},
		{Arcs: []topo.ArcID{ad, db}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Primary already half loaded; the rest spread over two uppers.
	s.SetShare(f, []float64{0.5, 0.25, 0.25})
	s.Run(1)
	ceiling := 0.9 * lowWater
	for i := 0; i < 20; i++ {
		ctrl.DecideOnce(f)
		s.Run(s.Now() + 0.1)
		if u := s.ArcUtil(ab); u > ceiling+1e-6 {
			t.Fatalf("decision %d pushed primary util to %v, above the low-water %v", i, u, ceiling)
		}
	}
	// The budget must still make progress: share does consolidate.
	if f.ShareOf(0) <= 0.5 {
		t.Errorf("no consolidation progress: primary share still %v", f.ShareOf(0))
	}
}

// TestOnFailureTouchesOnlyAffected: failing a link evacuates only the
// flows whose installed paths cross it.
func TestOnFailureTouchesOnlyAffected(t *testing.T) {
	tp := topo.New("affected")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	c := tp.AddNode("C", topo.KindRouter)
	d := tp.AddNode("D", topo.KindRouter)
	lab := tp.AddLink(a, b, 10*topo.Mbps, 0.001)
	tp.AddLink(c, d, 10*topo.Mbps, 0.001)
	tp.AddLink(a, d, 10*topo.Mbps, 0.001)
	tp.AddLink(c, b, 10*topo.Mbps, 0.001)
	ab, _ := tp.ArcBetween(a, b)
	cd, _ := tp.ArcBetween(c, d)
	ad, _ := tp.ArcBetween(a, d)
	cb, _ := tp.ArcBetween(c, b)
	s := sim.New(tp, sim.Opts{SleepAfterIdle: 1e9})
	ctrl := NewController(s, Opts{Period: 10})
	f1, _ := s.AddFlow(a, b, 1*topo.Mbps, []topo.Path{{Arcs: []topo.ArcID{ab}}, {Arcs: []topo.ArcID{ad}}})
	f2, _ := s.AddFlow(c, d, 1*topo.Mbps, []topo.Path{{Arcs: []topo.ArcID{cd}}, {Arcs: []topo.ArcID{cb}}})
	ctrl.Manage(f1)
	ctrl.Manage(f2)
	ctrl.Start()
	s.Run(1)
	s.FailLink(lab)
	s.Run(2)
	if f1.ShareOf(0) > 1e-9 {
		t.Errorf("affected flow not evacuated: share %v", f1.ShareOf(0))
	}
	if f2.ShareOf(0) < 1-1e-9 {
		t.Errorf("unaffected flow was moved: share %v", f2.ShareOf(0))
	}
}

// TestWheelCompactsRemovedFlows: flows removed from the simulator
// leave the probe wheel (once no snapshot is in flight), so probe
// rounds stay proportional to the live population under churn.
func TestWheelCompactsRemovedFlows(t *testing.T) {
	tp := topo.New("churn")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	tp.AddLink(a, b, 10*topo.Mbps, 0.001)
	ab, _ := tp.ArcBetween(a, b)
	s := sim.New(tp, sim.Opts{SleepAfterIdle: 1e9})
	ctrl := NewController(s, Opts{Period: 1})
	var flows []*sim.Flow
	for i := 0; i < 10; i++ {
		f, _ := s.AddFlow(a, b, 0.1*topo.Mbps, []topo.Path{{Arcs: []topo.ArcID{ab}}})
		ctrl.Manage(f)
		flows = append(flows, f)
	}
	ctrl.Start()
	s.Run(2)
	for _, f := range flows[:7] {
		s.RemoveFlow(f)
	}
	s.Run(5) // several probe rounds: quiet windows trigger compaction
	total := 0
	for gi := range ctrl.wheel.groups {
		total += len(ctrl.wheel.groups[gi].slots)
	}
	if total != 3 {
		t.Errorf("wheel holds %d slots after churn, want 3 live", total)
	}
	for _, f := range flows[7:] {
		if math.Abs(f.Rate()-0.1e6) > 1 {
			t.Errorf("survivor rate = %v", f.Rate())
		}
	}
}

// TestFingerprintDeterministic: two identical runs produce the same
// action fingerprint, and an action-free run keeps the seed value.
func TestFingerprintDeterministic(t *testing.T) {
	run := func() uint64 {
		s, ctrl, _, direct := evacTopo(t)
		ctrl.Start()
		s.Schedule(2.01, func() { s.FailLink(direct) })
		s.Run(6)
		return ctrl.Fingerprint()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("fingerprints differ across identical runs: %x vs %x", a, b)
	}
	if a == fnvOffset {
		t.Error("fingerprint unchanged despite shifts/wakes")
	}
}
