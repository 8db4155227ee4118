package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"response"
	"response/internal/sim"
	"response/internal/topo"
	"response/internal/traffic"
)

// flakyReplan fails every call until ok is flipped, then behaves like
// sameReplan.
type flakyReplan struct {
	r     *rig
	ok    bool
	calls int
}

func (f *flakyReplan) fn() ReplanFunc {
	return func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		f.calls++
		if !f.ok {
			return nil, errors.New("planner down")
		}
		return f.r.plan, nil
	}
}

// TestDegradedEntryAndExit: consecutive replan failures trip the
// all-on fallback; the first success exits it and restores the plan's
// pinning.
func TestDegradedEntryAndExit(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	fr := &flakyReplan{r: r}
	m := New(r.s, r.c, r.plan, fr.fn(), Opts{
		Policy:     Policy{MinInterval: 100, RetryBase: 20, RetryMax: 40, DegradedAfter: 2},
		CheckEvery: 100, ReplanLatency: 10,
	})
	m.Start()
	r.scaleFirst(0.5, 2)
	r.s.Run(400) // trigger, fail, retry, fail → degraded
	met := m.Metrics()
	if m.State() != StateDegraded {
		t.Fatalf("state = %v after %d consecutive failures, want degraded (metrics %+v)",
			m.State(), met.ConsecutiveFailures, met)
	}
	if met.DegradedEntered != 1 || met.DegradedExited != 0 {
		t.Fatalf("degraded entered/exited = %d/%d, want 1/0", met.DegradedEntered, met.DegradedExited)
	}
	if met.ConsecutiveFailures < 2 {
		t.Errorf("consecutive failures = %d, want >= 2", met.ConsecutiveFailures)
	}
	// The fallback pins the all-on table: nothing may sleep.
	for _, l := range r.g.Links() {
		if ph := r.s.PathPhase(topo.Path{Arcs: []topo.ArcID{l.AB}}); ph == sim.LinkSleeping {
			t.Fatalf("link %d sleeping while degraded: all-on fallback not pinned", l.ID)
		}
	}
	// Planner recovers: the next retry succeeds (Unchanged) and exits.
	fr.ok = true
	r.s.Run(r.s.Now() + 500)
	met = m.Metrics()
	if m.State() != StateIdle {
		t.Fatalf("state = %v after recovery, want idle (metrics %+v)", m.State(), met)
	}
	if met.DegradedExited != 1 {
		t.Errorf("degraded exited = %d, want 1", met.DegradedExited)
	}
	if met.ConsecutiveFailures != 0 {
		t.Errorf("consecutive failures = %d after success, want 0", met.ConsecutiveFailures)
	}
	if met.DegradedSec <= 0 {
		t.Errorf("degraded dwell = %v, want > 0", met.DegradedSec)
	}
	if met.Retries == 0 {
		t.Error("no retries counted despite backoff recovery")
	}
}

// TestReplanPanicRecovered: a panicking planner is a failed cycle, not
// a crashed control loop — and the manager keeps working afterwards.
func TestReplanPanicRecovered(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	calls := 0
	bomb := func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		calls++
		if calls == 1 {
			panic("solver segfault")
		}
		return r.plan, nil
	}
	m := New(r.s, r.c, r.plan, bomb, Opts{
		Policy:     Policy{MinInterval: 100, RetryBase: 20, RetryMax: 40},
		CheckEvery: 100, ReplanLatency: 10,
	})
	m.Start()
	r.scaleFirst(0.5, 2)
	r.s.Run(600)
	met := m.Metrics()
	if met.ReplanPanics != 1 {
		t.Fatalf("panics = %d, want 1 (metrics %+v)", met.ReplanPanics, met)
	}
	if met.ReplanFailed != 1 {
		t.Errorf("failed = %d, want 1", met.ReplanFailed)
	}
	if met.Unchanged == 0 {
		t.Error("retry after the panic never succeeded")
	}
	if m.State() != StateIdle {
		t.Errorf("state = %v, want idle", m.State())
	}
}

// TestReplanDeadlineInline: an inline replan reads its simulated-clock
// budget from the context; overrunning it is a counted timeout.
func TestReplanDeadlineInline(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	calls := 0
	slow := func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		calls++
		budget, ok := ReplanBudget(ctx)
		if !ok {
			t.Fatal("replan context carries no budget despite ReplanDeadline")
		}
		if calls == 1 {
			return nil, fmt.Errorf("modeled compute %.0fs over budget: %w",
				budget, context.DeadlineExceeded)
		}
		return r.plan, nil
	}
	m := New(r.s, r.c, r.plan, slow, Opts{
		Policy:     Policy{MinInterval: 100, ReplanDeadline: 50, RetryBase: 20, RetryMax: 40},
		CheckEvery: 100, ReplanLatency: 10,
	})
	m.Start()
	r.scaleFirst(0.5, 2)
	r.s.Run(600)
	met := m.Metrics()
	if met.ReplanTimeouts != 1 {
		t.Fatalf("timeouts = %d, want 1 (metrics %+v)", met.ReplanTimeouts, met)
	}
	if met.Unchanged == 0 {
		t.Error("retry after the timeout never succeeded")
	}
}

// TestCorruptArtifactKeepsLastGood: a staging whose serialized
// artifact is bit-flipped in transit is rejected by the round-trip
// gate; the last-known-good artifact slot and the installed plan are
// untouched, and a clean staging afterwards goes through.
func TestCorruptArtifactKeepsLastGood(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	corrupt := true
	m := New(r.s, r.c, r.plan, r.liveReplan(), Opts{
		Policy:     Policy{MinInterval: 100, RetryBase: 20, RetryMax: 40, DegradedAfter: -1},
		CheckEvery: 100, ReplanLatency: 10, NoPowerGate: true,
		ArtifactFilter: func(b []byte) []byte {
			if !corrupt {
				return b
			}
			out := append([]byte(nil), b...)
			out[len(out)/2] ^= 0x40
			return out
		},
	})
	m.Start()
	r.scaleFirst(0.5, 3)
	r.s.Run(400)
	met := m.Metrics()
	if met.RejectedInvalid == 0 {
		t.Fatalf("corrupt artifact never rejected (metrics %+v)", met)
	}
	if met.Swaps != 0 {
		t.Fatalf("corrupt artifact staged a swap: %d", met.Swaps)
	}
	if m.StagedArtifact() != nil {
		t.Fatal("corrupt bytes overwrote the last-known-good artifact slot")
	}
	if m.CurrentPlan() != r.plan {
		t.Fatal("corrupt staging replaced the installed plan")
	}
	// Transit heals: the next retry stages cleanly.
	corrupt = false
	r.s.Run(r.s.Now() + 1000)
	met = m.Metrics()
	if met.Swaps == 0 && met.Unchanged == 0 {
		t.Fatalf("no successful staging after corruption cleared (metrics %+v)", met)
	}
	if art := m.StagedArtifact(); met.Swaps > 0 && len(art) == 0 {
		t.Error("successful staging left no artifact")
	}
}

// TestReplanAfterStopDiscarded: a replan result still waiting out its
// ReplanLatency window when Stop() lands must be discarded without
// touching the simulator.
func TestReplanAfterStopDiscarded(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	calls := 0
	replan := func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		calls++
		return r.plan, nil
	}
	m := New(r.s, r.c, r.plan, replan, Opts{
		Policy:     Policy{MinInterval: 100},
		CheckEvery: 100, ReplanLatency: 500,
	})
	m.Start()
	r.scaleFirst(0.5, 2)
	r.s.Run(150) // the check at t=100 replans; staging is due at t=600
	if calls != 1 || m.State() != StateReplanning {
		t.Fatalf("replan calls = %d, state = %v; want one result inside its latency window", calls, m.State())
	}
	m.Stop()
	r.s.Run(r.s.Now() + 2000)
	met := m.Metrics()
	if met.Replans != 0 || met.Swaps != 0 || met.Unchanged != 0 {
		t.Errorf("post-Stop result was staged: %+v", met)
	}
	if m.CurrentPlan() != r.plan {
		t.Error("post-Stop result replaced the installed plan")
	}
}

// TestStageAndSwapRejectedWhileDraining: forcing a plan while a swap
// is still draining must error instead of double-firing; the drain
// then completes normally.
func TestStageAndSwapRejectedWhileDraining(t *testing.T) {
	r := newRig(t, 2, 1, 0.3)
	m := New(r.s, r.c, r.plan, r.liveReplan(), Opts{
		Policy:     Policy{MinInterval: 100},
		CheckEvery: 100, ReplanLatency: 10,
		NoPowerGate: true, DrainGrace: 500,
	})
	m.Start()
	r.scaleFirst(0.5, 3)
	deadline := time.Now().Add(10 * time.Second)
	for m.State() != StateSwapping {
		r.s.Run(r.s.Now() + 50)
		if time.Now().After(deadline) {
			t.Skipf("replanned tables never differed; nothing to drain (metrics %+v)", m.Metrics())
		}
	}
	drifted, err := r.planner.Plan(context.Background(), r.g,
		response.WithLowMatrix(liveMatrix(r)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StageAndSwap(drifted); err == nil {
		t.Fatal("StageAndSwap succeeded mid-drain, want rejection")
	}
	r.s.Run(r.s.Now() + 2000)
	if m.State() != StateIdle {
		t.Fatalf("state = %v after drain, want idle", m.State())
	}
	met := m.Metrics()
	if met.Swaps != met.SwapsDone {
		t.Errorf("swaps begun %d != drained %d", met.Swaps, met.SwapsDone)
	}
}

// liveMatrix aggregates the rig's current offered demand.
func liveMatrix(r *rig) *traffic.Matrix {
	m := traffic.NewMatrix()
	for _, f := range r.flows {
		if !f.Removed() && f.Demand > 0 {
			m.Add(f.O, f.D, f.Demand)
		}
	}
	return m
}

// retryAbandonWhenCalm: covered implicitly by TestDegradedEntryAndExit
// (degraded retries always fire); the calm-idle abandonment path is
// exercised here — a failure followed by demand returning to baseline
// must not keep replanning.
func TestRetryAbandonedWhenCalm(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	fr := &flakyReplan{r: r}
	m := New(r.s, r.c, r.plan, fr.fn(), Opts{
		Policy:     Policy{MinInterval: 100, RetryBase: 300, RetryMax: 300, DegradedAfter: -1},
		CheckEvery: 100, ReplanLatency: 10,
	})
	m.Start()
	r.scaleFirst(0.5, 2)
	r.s.Run(150) // trigger fires; staging fails at ~110; retry due at ~410
	if got := m.Metrics().ReplanFailed; got != 1 {
		t.Fatalf("failed = %d, want 1", got)
	}
	r.scaleFirst(0.5, 1) // demand calms before the retry fires
	r.s.Run(1500)
	met := m.Metrics()
	if met.Retries != 0 {
		t.Errorf("retries = %d after demand calmed, want 0", met.Retries)
	}
	if fr.calls != 1 {
		t.Errorf("replan calls = %d, want 1 (retry should abandon)", fr.calls)
	}
}
