package sim

import (
	"testing"

	"response/internal/topo"
)

func pinTopo(t *testing.T) (*Simulator, *topo.Topology, topo.LinkID, topo.LinkID) {
	t.Helper()
	tp := topo.New("pin")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	c := tp.AddNode("C", topo.KindRouter)
	l1 := tp.AddLink(a, b, 10*topo.Mbps, 0.01)
	l2 := tp.AddLink(b, c, 10*topo.Mbps, 0.01)
	pinned := topo.AllOff(tp)
	pinned.Link[l1] = true
	s := New(tp, Opts{WakeUpDelay: 1, SleepAfterIdle: 0.1, PinnedOn: pinned})
	return s, tp, l1, l2
}

// TestSetPinnedOnSwapsSleepEligibility: un-pinning an idle link lets
// it sleep; pinning a sleeping link wakes it.
func TestSetPinnedOnSwapsSleepEligibility(t *testing.T) {
	s, tp, l1, l2 := pinTopo(t)
	s.Run(1)
	if got := s.phase[l1]; got != LinkActive {
		t.Fatalf("pinned idle link state = %v, want active", got)
	}
	if got := s.phase[l2]; got != LinkSleeping {
		t.Fatalf("unpinned idle link state = %v, want sleeping", got)
	}
	// Swap the pinned set: l2 becomes always-on, l1 leaves the set.
	swapped := topo.AllOff(tp)
	swapped.Link[l2] = true
	s.SetPinnedOn(swapped)
	if got := s.phase[l2]; got != LinkWaking {
		t.Errorf("newly pinned sleeping link state = %v, want waking", got)
	}
	s.Run(2.5)
	if got := s.phase[l2]; got != LinkActive {
		t.Errorf("newly pinned link state = %v, want active after wake", got)
	}
	if got := s.phase[l1]; got != LinkSleeping {
		t.Errorf("unpinned idle link state = %v, want sleeping after idle", got)
	}
}

// TestStateFingerprintReflectsPlacement: equal traffic placement gives
// equal fingerprints regardless of flow identity/history; different
// placement differs.
func TestStateFingerprintReflectsPlacement(t *testing.T) {
	build := func(extraDead bool, rate float64) uint64 {
		tp := topo.New("fp")
		a := tp.AddNode("A", topo.KindRouter)
		b := tp.AddNode("B", topo.KindRouter)
		tp.AddLink(a, b, 10*topo.Mbps, 0.01)
		ab, _ := tp.ArcBetween(a, b)
		p := []topo.Path{{Arcs: []topo.ArcID{ab}}}
		s := New(tp, Opts{SleepAfterIdle: 1e9})
		if extraDead {
			// History that should not matter: an earlier flow that was
			// removed again.
			g, _ := s.AddFlow(a, b, 2*topo.Mbps, p)
			s.Run(1)
			s.RemoveFlow(g)
		}
		if _, err := s.AddFlow(a, b, rate, p); err != nil {
			t.Fatal(err)
		}
		s.Run(2)
		return s.StateFingerprint()
	}
	plain := build(false, 5*topo.Mbps)
	churned := build(true, 5*topo.Mbps)
	other := build(false, 6*topo.Mbps)
	if plain != churned {
		t.Errorf("same placement, different history: %016x vs %016x", plain, churned)
	}
	if plain == other {
		t.Errorf("different placement shares fingerprint %016x", plain)
	}
}
