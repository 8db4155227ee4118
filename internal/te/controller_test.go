package te

import (
	"math"
	"testing"

	"response/internal/power"
	"response/internal/sim"
	"response/internal/topo"
)

// fig3 builds the Click experiment setup of §5.3: Figure 3 topology
// without router B, flows from A and C to K, with the middle path as
// level 0 and the upper/lower on-demand paths as level 1 (failover
// coincides with on-demand, as in the paper).
func fig3(t *testing.T, wake float64) (*topo.Example, *sim.Simulator, *Controller, *sim.Flow, *sim.Flow) {
	t.Helper()
	ex := topo.NewExample(topo.ExampleOpts{})
	// Pin the always-on (middle) path elements so they never sleep.
	pinned := topo.AllOff(ex.Topology)
	pinned.ActivatePath(ex.Topology, ex.MiddlePath(ex.A))
	pinned.ActivatePath(ex.Topology, ex.MiddlePath(ex.C))
	s := sim.New(ex.Topology, sim.Opts{
		WakeUpDelay:      wake,
		SleepAfterIdle:   0.05,
		FailureDetect:    0.05,
		FailurePropagate: 0.05,
		Model:            power.Cisco12000{},
		PinnedOn:         pinned,
	})
	ctrl := NewController(s, Opts{Threshold: 0.9, Gamma: 0.5})
	// 5 flows of 0.5 Mbps each from A and from C (≈5 Mbps total, §5.3).
	fa, err := s.AddFlow(ex.A, ex.K, 2.5*topo.Mbps, []topo.Path{ex.MiddlePath(ex.A), ex.UpperPath()})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := s.AddFlow(ex.C, ex.K, 2.5*topo.Mbps, []topo.Path{ex.MiddlePath(ex.C), ex.LowerPath()})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Manage(fa)
	ctrl.Manage(fc)
	return ex, s, ctrl, fa, fc
}

func TestOnDemandPathsSleepAtLowLoad(t *testing.T) {
	ex, s, ctrl, fa, fc := fig3(t, 0.01)
	// Start with half the traffic wrongly on the on-demand paths.
	s.SetShare(fa, []float64{0.5, 0.5})
	s.SetShare(fc, []float64{0.5, 0.5})
	ctrl.Start()
	s.Run(5)
	// 5 Mbps total on a 10 Mbps middle path: fits under threshold, so
	// the controller must consolidate and the on-demand links sleep.
	if fa.ShareOf(1) > 0.01 || fc.ShareOf(1) > 0.01 {
		t.Errorf("on-demand shares not consolidated: %v / %v", fa.ShareOf(1), fc.ShareOf(1))
	}
	for _, p := range []topo.Path{ex.UpperPath(), ex.LowerPath()} {
		if got := s.PathPhase(p); got != sim.LinkSleeping {
			t.Errorf("on-demand path phase = %v, want sleeping", got)
		}
	}
	if math.Abs(fa.Rate()-2.5e6) > 1e3 || math.Abs(fc.Rate()-2.5e6) > 1e3 {
		t.Errorf("rates dropped during consolidation: %v / %v", fa.Rate(), fc.Rate())
	}
	if s.PowerPct() >= 99 {
		t.Errorf("power = %.1f%%, expected savings from sleeping paths", s.PowerPct())
	}
}

func TestThresholdActivatesOnDemand(t *testing.T) {
	_, s, ctrl, fa, fc := fig3(t, 0.01)
	ctrl.Start()
	s.Run(3) // settle at low load: everything on middle
	// Raise demand so the shared E-H link would run at 140%.
	s.SetDemand(fa, 7*topo.Mbps)
	s.SetDemand(fc, 7*topo.Mbps)
	s.Run(10)
	if fa.ShareOf(1) < 0.1 && fc.ShareOf(1) < 0.1 {
		t.Errorf("no on-demand activation under overload: %v / %v",
			fa.ShareOf(1), fc.ShareOf(1))
	}
	// Both flows should now achieve their demand.
	if fa.Rate() < 6.5e6 || fc.Rate() < 6.5e6 {
		t.Errorf("rates = %v / %v, want ≈7 Mbps each", fa.Rate(), fc.Rate())
	}
	// And the shared middle link must be back under threshold.
	if u := s.ArcUtil(mustArcUtilTarget(t, s)); u > 0.9+0.05 {
		t.Errorf("middle link util = %v, want <= threshold", u)
	}
}

func mustArcUtilTarget(t *testing.T, s *sim.Simulator) topo.ArcID {
	t.Helper()
	// Find the E-H arc by name.
	var e, h topo.NodeID = -1, -1
	for _, n := range s.T.Nodes() {
		switch n.Name {
		case "E":
			e = n.ID
		case "H":
			h = n.ID
		}
	}
	id, ok := s.T.ArcBetween(e, h)
	if !ok {
		t.Fatal("no E-H arc")
	}
	return id
}

// TestFig7Timeline reproduces the §5.3 Click experiment timeline: TE
// starts at t=5 s and consolidates within a few RTTs; the middle link
// fails at t=5.7 s and traffic is restored onto the sleeping paths.
func TestFig7Timeline(t *testing.T) {
	ex, s, ctrl, fa, fc := fig3(t, 0.01)
	// Traffic starts split (as in the paper's run) at t=0; TE at t=5.
	s.SetShare(fa, []float64{0.5, 0.5})
	s.SetShare(fc, []float64{0.5, 0.5})
	s.Schedule(5, func() { ctrl.Start() })
	// Fail the middle (E-H) link at t=5.7.
	ehArc := mustArcUtilTarget(t, s)
	eh := s.T.Arc(ehArc).Link
	s.Schedule(5.7, func() { s.FailLink(eh) })
	var rates []sim.Sample // fa's achieved rate every 50 ms
	s.SampleEvery(0.05, 8, func(now float64) {
		rates = append(rates, sim.Sample{Time: now, Value: fa.Rate()})
	})
	s.Run(8)

	// Between TE start and the failure the flows kept full rate (the
	// consolidation itself must not disturb throughput).
	for _, smp := range rates {
		if smp.Time > 5.4 && smp.Time < 5.65 && smp.Value < 2.4e6 {
			t.Errorf("rate dipped to %v during consolidation at t=%.2f", smp.Value, smp.Time)
		}
	}
	// After failure + detection (100 ms) + wake (10 ms), traffic is
	// restored on upper/lower. Check final rates.
	if fa.Rate() < 2.4e6 || fc.Rate() < 2.4e6 {
		t.Errorf("final rates = %v / %v, want ≈2.5 Mbps", fa.Rate(), fc.Rate())
	}
	if fa.ShareOf(0) > 0.01 || fc.ShareOf(0) > 0.01 {
		t.Errorf("share left on failed middle: %v / %v", fa.ShareOf(0), fc.ShareOf(0))
	}
	if s.PathPhase(ex.UpperPath()) != sim.LinkActive {
		t.Error("upper path should be active after failover")
	}
	// Restoration must happen promptly: find when fa's rate recovered.
	recovered := math.Inf(1)
	for _, smp := range rates {
		if smp.Time > 5.7 && smp.Value > 2.4e6 {
			recovered = smp.Time
			break
		}
	}
	if recovered > 6.2 {
		t.Errorf("traffic restored at t=%.2f, want < 6.2 (fail 5.7 + detect 0.1 + wake 0.01 + slack)", recovered)
	}
}

// TestNoOscillation: with stationary demand below threshold, the
// controller reaches a fixed point and stops shifting.
func TestNoOscillation(t *testing.T) {
	_, s, ctrl, _, _ := fig3(t, 0.01)
	ctrl.Start()
	s.Run(10)
	early := ctrl.Shifts
	s.Run(30)
	if ctrl.Shifts > early {
		t.Errorf("controller still shifting at steady state: %d -> %d shifts", early, ctrl.Shifts)
	}
}

func TestPeriodDefaultsToMaxRTT(t *testing.T) {
	ex := topo.NewExample(topo.ExampleOpts{})
	s := sim.New(ex.Topology, sim.Opts{})
	c := NewController(s, Opts{})
	want := ex.MaxRTT()
	if math.Abs(c.Period()-want) > 1e-9 {
		t.Errorf("period = %v, want max RTT %v", c.Period(), want)
	}
}

func TestEvacuateWithoutAlternatives(t *testing.T) {
	// Single-path flow: failure leaves nowhere to go; must not panic
	// or loop.
	tp := topo.New("single")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	tp.AddLink(a, b, topo.Mbps, 0.001)
	ab, _ := tp.ArcBetween(a, b)
	s := sim.New(tp, sim.Opts{})
	ctrl := NewController(s, Opts{})
	f, _ := s.AddFlow(a, b, 0.5*topo.Mbps, []topo.Path{{Arcs: []topo.ArcID{ab}}})
	ctrl.Manage(f)
	ctrl.Start()
	s.Run(1)
	s.FailLink(0)
	s.Run(2)
	if f.Rate() != 0 {
		t.Error("flow should be dead")
	}
}
