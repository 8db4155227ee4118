package lifecycle

// The concurrent-snapshot contract of Manager.Metrics/State: the
// controld daemon polls a running manager from HTTP handler goroutines
// while the simulator advances — and replans inline — on the tenant
// loop. Under -race this test is the proof that the copy-on-read
// accessors never touch the live event-loop fields.

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestMetricsConcurrentSnapshot hammers Metrics/State reads from many
// goroutines while the driving goroutine steps a replanning lifecycle
// to completion. Run under -race (CI does).
func TestMetricsConcurrentSnapshot(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	m := New(r.s, r.c, r.plan, r.liveReplan(), Opts{
		Policy:     Policy{MinInterval: 100},
		CheckEvery: 100, ReplanLatency: 10,
	})
	m.Start()
	r.scaleFirst(0.5, 3) // drift well past the trigger

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reads int
			for !stop.Load() {
				met := m.Metrics()
				st := m.State()
				if met.Checks < 0 || st > StateDegraded {
					t.Errorf("impossible snapshot: checks=%d state=%v", met.Checks, st)
					return
				}
				reads++
			}
			if reads == 0 {
				t.Error("poller never completed a read")
			}
		}()
	}

	// Drive until the replan has been staged (or plenty of simulated
	// time has passed).
	for end := 200.0; end <= 60*3600; end += 200 {
		r.s.Run(end)
		if m.Metrics().Replans > 0 && m.State() == StateIdle {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	m.Stop()

	met := m.Metrics()
	if met.Triggers == 0 || met.Replans == 0 {
		t.Fatalf("replan never completed under pollers: %+v", met)
	}
}

// TestSetPolicyValidatesAndApplies: SetPolicy rejects nonsense and
// applies sane values to the live trigger machinery.
func TestSetPolicyValidatesAndApplies(t *testing.T) {
	r := newRig(t, 2, 1, 0.3)
	m := New(r.s, r.c, r.plan, r.sameReplan(), Opts{Policy: Policy{MinInterval: 100}, CheckEvery: 100})
	m.Start()

	p := m.Policy()
	if p.Deviation != 0.2 || p.Spread != 0.25 {
		t.Fatalf("default policy = %+v, want the Opts defaults", p)
	}
	bad := p
	bad.Spread = 1.5
	if err := m.SetPolicy(bad); err == nil {
		t.Fatal("SetPolicy accepted spread > 1")
	}
	bad = p
	bad.RetryMax = p.RetryBase / 2
	if err := m.SetPolicy(bad); err == nil {
		t.Fatal("SetPolicy accepted retry max < retry base")
	}
	bad = p
	bad.DegradedAfter = 0
	if err := m.SetPolicy(bad); err == nil {
		t.Fatal("SetPolicy accepted degraded-after = 0")
	}

	// Raise the spread so drift that would have fired no longer does.
	p.Spread = 0.95
	if err := m.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	if got := m.Policy().Spread; got != 0.95 {
		t.Fatalf("spread = %g after patch, want 0.95", got)
	}
	r.scaleFirst(0.5, 3)
	r.s.Run(1000)
	if got := m.Metrics().Triggers; got != 0 {
		t.Fatalf("triggers = %d under patched spread 0.95, want 0", got)
	}
	// Patch it back down: the very same drift now fires.
	p.Spread = 0.25
	if err := m.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	r.s.Run(2000)
	if got := m.Metrics().Triggers; got == 0 {
		t.Fatal("no trigger after restoring spread 0.25")
	}
}
