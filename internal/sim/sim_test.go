package sim

import (
	"math"
	"testing"
	"testing/quick"

	"response/internal/power"
	"response/internal/topo"
)

// dumbbell: A-B single 10 Mbps, 10 ms link.
func dumbbell(t *testing.T) (*topo.Topology, topo.NodeID, topo.NodeID, topo.Path) {
	t.Helper()
	tp := topo.New("dumbbell")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	tp.AddLink(a, b, 10*topo.Mbps, 0.01)
	ab, _ := tp.ArcBetween(a, b)
	return tp, a, b, topo.Path{Arcs: []topo.ArcID{ab}}
}

func TestSingleFlowDemandLimited(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{})
	f, err := s.AddFlow(a, b, 4*topo.Mbps, []topo.Path{p})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1)
	if math.Abs(f.Rate()-4*topo.Mbps) > 1 {
		t.Errorf("rate = %v, want 4 Mbps", f.Rate())
	}
	if u := s.PathUtil(p); math.Abs(u-0.4) > 1e-6 {
		t.Errorf("util = %v, want 0.4", u)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{})
	f1, _ := s.AddFlow(a, b, 20*topo.Mbps, []topo.Path{p})
	f2, _ := s.AddFlow(a, b, 20*topo.Mbps, []topo.Path{p})
	s.Run(1)
	if math.Abs(f1.Rate()-5*topo.Mbps) > 1 || math.Abs(f2.Rate()-5*topo.Mbps) > 1 {
		t.Errorf("rates = %v / %v, want 5 Mbps each", f1.Rate(), f2.Rate())
	}
}

func TestMaxMinSmallFlowGetsDemand(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{})
	small, _ := s.AddFlow(a, b, 1*topo.Mbps, []topo.Path{p})
	big, _ := s.AddFlow(a, b, 100*topo.Mbps, []topo.Path{p})
	s.Run(1)
	if math.Abs(small.Rate()-1*topo.Mbps) > 1 {
		t.Errorf("small flow got %v, want its full 1 Mbps", small.Rate())
	}
	if math.Abs(big.Rate()-9*topo.Mbps) > 1 {
		t.Errorf("big flow got %v, want the residual 9 Mbps", big.Rate())
	}
}

func TestSetDemandTakesEffect(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{})
	f, _ := s.AddFlow(a, b, 2*topo.Mbps, []topo.Path{p})
	s.Run(1)
	s.SetDemand(f, 8*topo.Mbps)
	s.Run(2)
	if math.Abs(f.Rate()-8*topo.Mbps) > 1 {
		t.Errorf("rate after SetDemand = %v", f.Rate())
	}
}

func TestBytesIntegration(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{})
	f, _ := s.AddFlow(a, b, 8*topo.Mbps, []topo.Path{p})
	s.Run(10)
	want := 8e6 / 8 * 10 // 10 MB
	if got := s.Bytes(f); math.Abs(got-want) > want*0.01 {
		t.Errorf("bytes = %v, want %v", got, want)
	}
}

func TestIdleLinkSleepsAndPowerDrops(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{Model: power.Cisco12000{}, SleepAfterIdle: 0.5})
	f, _ := s.AddFlow(a, b, 5*topo.Mbps, []topo.Path{p})
	s.Run(1)
	if s.phase[0] != LinkActive {
		t.Fatal("busy link should be active")
	}
	s.SetDemand(f, 0)
	s.Run(3)
	if s.phase[0] != LinkSleeping {
		t.Fatalf("idle link state = %v, want sleeping", s.phase[0])
	}
	if s.PowerPct() != 0 {
		t.Errorf("power = %v%%, want 0 (everything asleep)", s.PowerPct())
	}
}

func TestPinnedLinksNeverSleep(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	pinned := topo.AllOn(tp)
	s := New(tp, Opts{SleepAfterIdle: 0.1, PinnedOn: pinned})
	f, _ := s.AddFlow(a, b, 5*topo.Mbps, []topo.Path{p})
	s.SetDemand(f, 0)
	s.Run(5)
	if s.phase[0] != LinkActive {
		t.Errorf("pinned link slept: %v", s.phase[0])
	}
}

func TestWakeDelay(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{SleepAfterIdle: 0.1, WakeUpDelay: 2})
	f, _ := s.AddFlow(a, b, 0, []topo.Path{p})
	s.Run(1) // link sleeps (zero demand)
	if s.phase[0] != LinkSleeping {
		t.Fatalf("state = %v", s.phase[0])
	}
	s.SetDemand(f, 5*topo.Mbps)
	ready := s.RequestWake(p)
	if math.Abs(ready-(s.Now()+2)) > 1e-9 {
		t.Errorf("ready = %v, want now+2", ready)
	}
	s.Run(s.Now() + 1)
	if f.Rate() != 0 {
		t.Error("flow sent while path waking")
	}
	s.Run(ready + 0.1)
	if math.Abs(f.Rate()-5*topo.Mbps) > 1 {
		t.Errorf("rate after wake = %v", f.Rate())
	}
}

func TestFailureStopsTrafficAndNotifies(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{FailureDetect: 0.05, FailurePropagate: 0.05})
	f, _ := s.AddFlow(a, b, 5*topo.Mbps, []topo.Path{p})
	var notifiedAt float64 = -1
	s.OnLinkFail(func(now float64, l topo.LinkID) { notifiedAt = now })
	s.Run(1)
	s.FailLink(0)
	s.Run(2)
	if f.Rate() != 0 {
		t.Error("flow still sending over failed link")
	}
	if math.Abs(notifiedAt-1.1) > 1e-9 {
		t.Errorf("notified at %v, want 1.1 (fail at 1 + 0.1 delay)", notifiedAt)
	}
	if s.PathPhase(p) != LinkFailed {
		t.Error("path phase should be failed")
	}
	s.RepairLink(0)
	s.Run(3)
	if math.Abs(f.Rate()-5*topo.Mbps) > 1 {
		t.Error("flow did not recover after repair")
	}
}

func TestShiftShare(t *testing.T) {
	// Two disjoint paths A->B: direct and via C.
	tp := topo.New("twopath")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	c := tp.AddNode("C", topo.KindRouter)
	tp.AddLink(a, b, 10*topo.Mbps, 0.01)
	tp.AddLink(a, c, 10*topo.Mbps, 0.01)
	tp.AddLink(c, b, 10*topo.Mbps, 0.01)
	ab, _ := tp.ArcBetween(a, b)
	ac, _ := tp.ArcBetween(a, c)
	cb, _ := tp.ArcBetween(c, b)
	direct := topo.Path{Arcs: []topo.ArcID{ab}}
	detour := topo.Path{Arcs: []topo.ArcID{ac, cb}}

	// Disable sleeping: this test is about share arithmetic, and an
	// idle detour would (correctly) doze off otherwise.
	s := New(tp, Opts{SleepAfterIdle: 1e9})
	f, _ := s.AddFlow(a, b, 8*topo.Mbps, []topo.Path{direct, detour})
	s.Run(1)
	if f.PathRate(0) == 0 || f.PathRate(1) != 0 {
		t.Fatal("initial share should be all on level 0")
	}
	s.ShiftShare(f, 0, 1, 0.5)
	s.Run(2)
	if math.Abs(f.PathRate(0)-4e6) > 1 || math.Abs(f.PathRate(1)-4e6) > 1 {
		t.Errorf("split rates = %v / %v", f.PathRate(0), f.PathRate(1))
	}
	// Clamped shift: moving 2.0 moves only what's there.
	s.ShiftShare(f, 0, 1, 2.0)
	s.Run(3)
	if f.PathRate(0) != 0 || math.Abs(f.Rate()-8e6) > 1 {
		t.Errorf("after full shift: %v / %v", f.PathRate(0), f.PathRate(1))
	}
	// Invalid shifts are no-ops.
	s.ShiftShare(f, 5, 0, 1)
	s.ShiftShare(f, 0, 0, 1)
}

func TestMeterTracksSleepTransitions(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{Model: power.Cisco12000{}, SleepAfterIdle: 1})
	f, _ := s.AddFlow(a, b, 5*topo.Mbps, []topo.Path{p})
	s.Run(5)
	s.SetDemand(f, 0)
	s.Run(20)
	j := s.Meter().Finish(20)
	full := s.Meter().FullWatts()
	// Power: full for ≈6 s (5 s busy + 1 s idle timeout), then zero.
	want := full * 6
	if math.Abs(j-want) > full*1.0 {
		t.Errorf("energy = %.0f J, want ≈%.0f J", j, want)
	}
}

func TestSampleRates(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{})
	f, _ := s.AddFlow(a, b, 5*topo.Mbps, []topo.Path{p})
	var samples []Sample
	s.SampleEvery(0.5, 4.9, func(now float64) {
		samples = append(samples, Sample{Time: now, Value: f.Rate()})
	})
	s.Run(5)
	if len(samples) < 9 {
		t.Fatalf("samples = %d", len(samples))
	}
	for _, smp := range samples[1:] {
		if math.Abs(smp.Value-5e6) > 1 {
			t.Errorf("sample %v = %v", smp.Time, smp.Value)
		}
	}
}

func TestAddFlowValidation(t *testing.T) {
	tp, a, b, _ := dumbbell(t)
	s := New(tp, Opts{})
	if _, err := s.AddFlow(a, b, 1, nil); err == nil {
		t.Error("no paths should error")
	}
	bad := topo.Path{Arcs: []topo.ArcID{99}}
	if _, err := s.AddFlow(a, b, 1, []topo.Path{bad}); err == nil {
		t.Error("invalid path should error")
	}
}

// Property: allocation never exceeds arc capacity regardless of flow mix.
func TestAllocationCapacityProperty(t *testing.T) {
	tp := topo.New("tri")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	c := tp.AddNode("C", topo.KindRouter)
	tp.AddLink(a, b, 10*topo.Mbps, 0.001)
	tp.AddLink(b, c, 5*topo.Mbps, 0.001)
	tp.AddLink(a, c, 2*topo.Mbps, 0.001)
	ab, _ := tp.ArcBetween(a, b)
	bc, _ := tp.ArcBetween(b, c)
	ac, _ := tp.ArcBetween(a, c)
	paths := [][]topo.Path{
		{{Arcs: []topo.ArcID{ab}}},
		{{Arcs: []topo.ArcID{ab, bc}}, {Arcs: []topo.ArcID{ac}}},
		{{Arcs: []topo.ArcID{ac}}},
	}
	f := func(d1, d2, d3 uint16, split uint8) bool {
		s := New(tp, Opts{})
		f1, _ := s.AddFlow(a, b, float64(d1)*1e3, paths[0])
		f2, _ := s.AddFlow(a, c, float64(d2)*1e3, paths[1])
		f3, _ := s.AddFlow(a, c, float64(d3)*1e3, paths[2])
		s.Run(0.1)
		s.ShiftShare(f2, 0, 1, float64(split%101)/100)
		s.Run(0.2)
		for _, arc := range tp.Arcs() {
			if s.ArcUtil(arc.ID) > 1+1e-9 {
				return false
			}
		}
		// Work conservation: flows never exceed demand.
		for _, fl := range []*Flow{f1, f2, f3} {
			if fl.Rate() > fl.Demand+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestLinkPhaseString(t *testing.T) {
	for p, want := range map[LinkPhase]string{
		LinkActive: "active", LinkSleeping: "sleeping",
		LinkWaking: "waking", LinkFailed: "failed",
	} {
		if p.String() != want {
			t.Errorf("%d = %q", p, p.String())
		}
	}
}

// TestOverloadedLinks: only hot, non-failed links are candidates for
// the cascading-failure model.
func TestOverloadedLinks(t *testing.T) {
	tp := topo.New("triangle")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	c := tp.AddNode("C", topo.KindRouter)
	tp.AddLink(a, b, 10*topo.Mbps, 0.01)
	tp.AddLink(b, c, 10*topo.Mbps, 0.01)
	tp.AddLink(a, c, 10*topo.Mbps, 0.01)
	ab, _ := tp.ArcBetween(a, b)
	bc, _ := tp.ArcBetween(b, c)

	s := New(tp, Opts{})
	// Saturate A->B->C; leave A-C idle.
	if _, err := s.AddFlow(a, c, 50*topo.Mbps, []topo.Path{{Arcs: []topo.ArcID{ab, bc}}}); err != nil {
		t.Fatal(err)
	}
	s.Run(1)

	hot := s.OverloadedLinks(0.9)
	if len(hot) != 2 {
		t.Fatalf("OverloadedLinks(0.9) = %v, want the two saturated path links", hot)
	}
	if none := s.OverloadedLinks(1.5); len(none) != 0 {
		t.Errorf("threshold above max util still returns %v", none)
	}

	// A failed link is never a cascade candidate even if it was hot.
	s.FailLink(tp.Arc(ab).Link)
	s.Run(2)
	for _, l := range s.OverloadedLinks(0.9) {
		if l == tp.Arc(ab).Link {
			t.Errorf("failed link %d reported as overloaded", l)
		}
	}
}
