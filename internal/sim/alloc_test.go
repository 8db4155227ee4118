package sim

import (
	"math"
	"math/rand"
	"testing"

	"response/internal/topo"
)

// TestRequestWakeInFlightDeadline is the regression test for the wake
// over-report bug: a second RequestWake against a link that is already
// LinkWaking must return the in-flight wake's completion time, not
// now+WakeUpDelay, so a shift scheduled on the returned time fires as
// soon as the first wake completes.
func TestRequestWakeInFlightDeadline(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{SleepAfterIdle: 0.1, WakeUpDelay: 2})
	f, _ := s.AddFlow(a, b, 0, []topo.Path{p})
	s.Run(1) // zero demand: link sleeps
	if s.phase[0] != LinkSleeping {
		t.Fatalf("state = %v", s.phase[0])
	}
	first := s.RequestWake(p)
	if math.Abs(first-(s.Now()+2)) > 1e-9 {
		t.Fatalf("first ready = %v, want now+2", first)
	}
	// Half-way through the wake, a second requester shows up.
	s.Run(s.Now() + 1)
	if s.phase[0] != LinkWaking {
		t.Fatalf("state = %v, want waking", s.phase[0])
	}
	second := s.RequestWake(p)
	if math.Abs(second-first) > 1e-9 {
		t.Errorf("second ready = %v, want the in-flight deadline %v (was reported as now+delay = %v)",
			second, first, s.Now()+2)
	}
	// The second requester's shift, booked at the returned time, must
	// see a forwarding path at exactly the first wake's completion.
	var stateAtReady LinkPhase = LinkFailed
	s.Schedule(second, func() {
		stateAtReady = s.phase[0]
		s.SetDemand(f, 5*topo.Mbps)
	})
	s.Run(second + 0.05)
	if stateAtReady != LinkActive {
		t.Errorf("link %v at the reported ready time, want active", stateAtReady)
	}
	if math.Abs(f.Rate()-5*topo.Mbps) > 1 {
		t.Errorf("rate after shift at ready = %v", f.Rate())
	}
}

// multi builds a mesh with enough path diversity to exercise shared
// bottlenecks across components.
func multi(t *testing.T) (*topo.Topology, []topo.NodeID, [][]topo.Path) {
	t.Helper()
	tp := topo.New("mesh")
	n := make([]topo.NodeID, 6)
	for i := range n {
		n[i] = tp.AddNode(string(rune('A'+i)), topo.KindRouter)
	}
	caps := []float64{10, 8, 6, 12, 5, 7, 9, 11}
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}, {2, 5}}
	for i, e := range edges {
		tp.AddLink(n[e[0]], n[e[1]], caps[i]*topo.Mbps, 0.001)
	}
	arc := func(i, j int) topo.ArcID {
		id, ok := tp.ArcBetween(n[i], n[j])
		if !ok {
			t.Fatalf("no arc %d-%d", i, j)
		}
		return id
	}
	paths := [][]topo.Path{
		{{Arcs: []topo.ArcID{arc(0, 1), arc(1, 2)}}, {Arcs: []topo.ArcID{arc(0, 5), arc(5, 2)}}},
		{{Arcs: []topo.ArcID{arc(1, 2), arc(2, 3)}}, {Arcs: []topo.ArcID{arc(1, 4), arc(4, 3)}}},
		{{Arcs: []topo.ArcID{arc(3, 4)}}, {Arcs: []topo.ArcID{arc(3, 2), arc(2, 5), arc(5, 4)}}},
		{{Arcs: []topo.ArcID{arc(5, 0)}}},
		{{Arcs: []topo.ArcID{arc(4, 1), arc(1, 0)}}},
	}
	return tp, n, paths
}

// TestIncrementalMatchesFullAllocate drives an identical randomized
// event sequence (demand steps, share shifts, failures, repairs, flow
// removals) through the incremental allocator and the FullAllocate
// reference mode, asserting flow rates and arc loads agree throughout.
func TestIncrementalMatchesFullAllocate(t *testing.T) {
	tp, _, paths := multi(t)
	mk := func(full bool) (*Simulator, []*Flow) {
		s := New(tp, Opts{SleepAfterIdle: 0.5, WakeUpDelay: 0.05, FullAllocate: full})
		var fl []*Flow
		srcDst := [][2]int{{0, 2}, {1, 3}, {3, 4}, {5, 0}, {4, 0}}
		for i, ps := range paths {
			f, err := s.AddFlow(topo.NodeID(srcDst[i][0]), topo.NodeID(srcDst[i][1]),
				float64(2+i)*topo.Mbps, ps)
			if err != nil {
				t.Fatal(err)
			}
			fl = append(fl, f)
		}
		return s, fl
	}
	inc, fi := mk(false)
	ful, ff := mk(true)

	rng := rand.New(rand.NewSource(77))
	ops := make([]func(s *Simulator, fl []*Flow), 0, 400)
	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			i, d := rng.Intn(len(fi)), rng.Float64()*12*topo.Mbps
			ops = append(ops, func(s *Simulator, fl []*Flow) { s.SetDemand(fl[i], d) })
		case 4, 5:
			i, frac := rng.Intn(len(fi)), rng.Float64()
			from, to := rng.Intn(2), rng.Intn(2)
			ops = append(ops, func(s *Simulator, fl []*Flow) { s.ShiftShare(fl[i], from, to, frac) })
		case 6:
			l := topo.LinkID(rng.Intn(tp.NumLinks()))
			ops = append(ops, func(s *Simulator, fl []*Flow) { s.FailLink(l) })
		case 7:
			l := topo.LinkID(rng.Intn(tp.NumLinks()))
			ops = append(ops, func(s *Simulator, fl []*Flow) { s.RepairLink(l) })
		case 8:
			i := rng.Intn(len(fi))
			ops = append(ops, func(s *Simulator, fl []*Flow) {
				if i == 3 { // retire at most one flow, repeatedly (idempotent)
					s.RemoveFlow(fl[i])
				}
			})
		case 9:
			ops = append(ops, func(s *Simulator, fl []*Flow) {}) // idle tick
		}
	}
	at := 0.0
	for step, op := range ops {
		at += 0.03
		op(inc, fi)
		op(ful, ff)
		inc.Run(at)
		ful.Run(at)
		for i := range fi {
			for lvl := range fi[i].Paths {
				a, b := fi[i].PathRate(lvl), ff[i].PathRate(lvl)
				if math.Abs(a-b) > 1e-6*(1+math.Abs(b)) {
					t.Fatalf("step %d flow %d level %d: incremental %v != full %v", step, i, lvl, a, b)
				}
			}
		}
		for _, arc := range tp.Arcs() {
			a, b := inc.arcLoad[arc.ID], ful.arcLoad[arc.ID]
			if math.Abs(a-b) > 1e-6*(1+math.Abs(b)) {
				t.Fatalf("step %d arc %d: incremental load %v != full %v", step, arc.ID, a, b)
			}
			if a > arc.Capacity+1e-6 {
				t.Fatalf("step %d arc %d over capacity: %v > %v", step, arc.ID, a, arc.Capacity)
			}
		}
		for i := range fi {
			if l := i % tp.NumLinks(); inc.phase[l] != ful.phase[l] {
				t.Fatalf("step %d: link phase divergence", step)
			}
		}
	}
}

func TestRemoveFlow(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{})
	f1, _ := s.AddFlow(a, b, 20*topo.Mbps, []topo.Path{p})
	f2, _ := s.AddFlow(a, b, 20*topo.Mbps, []topo.Path{p})
	s.Run(1)
	if math.Abs(f1.Rate()-5*topo.Mbps) > 1 {
		t.Fatalf("pre-removal split = %v", f1.Rate())
	}
	s.RemoveFlow(f2)
	s.Run(2)
	if !f2.Removed() {
		t.Error("f2 not marked removed")
	}
	if f2.Rate() != 0 {
		t.Errorf("removed flow still achieves %v", f2.Rate())
	}
	if math.Abs(f1.Rate()-10*topo.Mbps) > 1 {
		t.Errorf("survivor did not reclaim capacity: %v", f1.Rate())
	}
	s.RemoveFlow(f2) // idempotent
	s.Run(3)
	if math.Abs(f1.Rate()-10*topo.Mbps) > 1 {
		t.Errorf("repeated removal disturbed the survivor: %v", f1.Rate())
	}
}

// TestChurnCompactsIndex: sustained add/remove churn must not grow
// the inverted index beyond the live flow set (amortized compaction),
// and the surviving flows keep exact allocation.
func TestChurnCompactsIndex(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{})
	keeper, _ := s.AddFlow(a, b, 2*topo.Mbps, []topo.Path{p})
	for i := 0; i < 1000; i++ {
		f, err := s.AddFlow(a, b, 1*topo.Mbps, []topo.Path{p})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(float64(i) * 0.01)
		s.RemoveFlow(f)
	}
	s.Run(11)
	ab, _ := tp.ArcBetween(a, b)
	if n := len(s.arcSubs[ab]); n > 3 {
		t.Errorf("index holds %d entries after churn, want <= 3 (1 live flow)", n)
	}
	live := 0
	s.FlowsOnLink(0, func(f *Flow, level int) { live++ })
	if live != 1 {
		t.Errorf("FlowsOnLink yields %d entries, want 1", live)
	}
	if math.Abs(keeper.Rate()-2*topo.Mbps) > 1 {
		t.Errorf("survivor rate = %v after churn", keeper.Rate())
	}
}

// TestSleepWakeStaysEventDriven: with a stationary busy network, no
// sleep-check events accumulate (the seed runtime rescanned every link
// on every settle; the rebuild must stay quiet while nothing changes).
func TestSleepWakeStaysEventDriven(t *testing.T) {
	tp, a, b, p := dumbbell(t)
	s := New(tp, Opts{SleepAfterIdle: 0.1})
	s.AddFlow(a, b, 5*topo.Mbps, []topo.Path{p})
	s.Run(1)
	before := s.seq
	s.Run(1000)
	if grew := s.seq - before; grew > 4 {
		t.Errorf("%d events scheduled across a quiet millennium, want ~0", grew)
	}
}
