package lifecycle

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"response"
	"response/internal/core"
	"response/internal/mcf"
	"response/internal/sim"
	"response/internal/te"
	"response/internal/topo"
	"response/internal/traffic"
)

// rig is a GÉANT simulator/controller/flows fixture mirroring the
// scenario catalog's construction, with direct demand control.
type rig struct {
	g       *topo.Topology
	planner *response.Planner
	plan    *response.Plan
	s       *sim.Simulator
	c       *te.Controller
	flows   []*sim.Flow
	base    []float64 // per-flow baseline demand
}

// newRig plans GÉANT and installs flows over the planned levels.
// loadFrac scales aggregate demand relative to the max feasible load;
// keep it well under the 0.9 activation threshold for steady-state
// tests that must not shift.
func newRig(t testing.TB, seed int64, flowsPerPair int, loadFrac float64) *rig {
	t.Helper()
	g := topo.NewGeant()
	rng := rand.New(rand.NewSource(seed))
	endpoints := core.DefaultEndpoints(g)
	planner := response.NewPlanner(response.WithEndpoints(endpoints))
	plan, err := planner.Plan(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	base := traffic.Gravity(g, traffic.GravityOpts{Nodes: endpoints, TotalRate: 1})
	maxScale := mcf.MaxFeasibleScale(g, base, mcf.RouteOpts{}, 0.05)
	peak := base.Scale(maxScale * loadFrac)
	s := sim.New(g, sim.Opts{
		WakeUpDelay:    5,
		SleepAfterIdle: 60,
		PinnedOn:       plan.AlwaysOnSet(),
	})
	c := te.NewController(s, te.Opts{Threshold: 0.9, Gamma: 0.5, Period: 60})
	r := &rig{g: g, planner: planner, plan: plan, s: s, c: c}
	for _, d := range peak.Demands() {
		ps, ok := plan.PathSet(d.O, d.D)
		if !ok {
			continue
		}
		n := flowsPerPair
		if n <= 0 {
			n = 1 + rng.Intn(3)
		}
		each := d.Rate / float64(n)
		for i := 0; i < n; i++ {
			f, err := s.AddFlow(d.O, d.D, each, ps.Levels())
			if err != nil {
				t.Fatal(err)
			}
			c.Manage(f)
			r.flows = append(r.flows, f)
			r.base = append(r.base, each)
		}
	}
	c.Start()
	return r
}

// scaleFirst multiplies the demand of the first frac of flows by k
// (relative to their baseline).
func (r *rig) scaleFirst(frac, k float64) {
	n := int(frac * float64(len(r.flows)))
	for i := 0; i < n && i < len(r.flows); i++ {
		if !r.flows[i].Removed() {
			r.s.SetDemand(r.flows[i], r.base[i]*k)
		}
	}
}

// sameReplan returns the installed plan unchanged — the paper's common
// case (recomputation confirms the tables).
func (r *rig) sameReplan() ReplanFunc {
	return func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		return r.plan, nil
	}
}

// liveReplan replans with the live matrix as d_low (demand-aware), the
// scenario catalog's replanner.
func (r *rig) liveReplan() ReplanFunc {
	return func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		return r.planner.Plan(ctx, r.g, response.WithLowMatrix(live))
	}
}

func TestNoTriggerWhenFlat(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	m := New(r.s, r.c, r.plan, r.sameReplan(), Opts{Policy: Policy{MinInterval: 100}, CheckEvery: 100})
	m.Start()
	r.s.Run(1000)
	met := m.Metrics()
	if met.Checks < 9 {
		t.Fatalf("checks = %d, want ~10", met.Checks)
	}
	if met.Triggers != 0 || met.Replans != 0 {
		t.Errorf("flat demand fired %d triggers / %d replans, want 0", met.Triggers, met.Replans)
	}
	if m.State() != StateIdle {
		t.Errorf("state = %v, want idle", m.State())
	}
}

// TestTriggerAndUnchangedAdoptsBaseline: drift past the policy fires a
// replan; an identical result redeploys nothing but the baseline moves
// so deviation settles back to zero.
func TestTriggerAndUnchangedAdoptsBaseline(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	m := New(r.s, r.c, r.plan, r.sameReplan(), Opts{
		Policy:     Policy{MinInterval: 100, Deviation: 0.2, Spread: 0.25},
		CheckEvery: 100, ReplanLatency: 10,
	})
	m.Start()
	r.s.Run(250)
	r.scaleFirst(0.5, 2) // half the flows double: spread 0.5 >= 0.25
	r.s.Run(600)
	met := m.Metrics()
	if met.Triggers != 1 || met.Replans != 1 {
		t.Fatalf("triggers/replans = %d/%d, want 1/1", met.Triggers, met.Replans)
	}
	if met.Unchanged != 1 || met.Swaps != 0 {
		t.Errorf("unchanged/swaps = %d/%d, want 1/0", met.Unchanged, met.Swaps)
	}
	if met.LastDeviation != 0 {
		t.Errorf("deviation after baseline adoption = %v, want 0", met.LastDeviation)
	}
	if m.State() != StateIdle {
		t.Errorf("state = %v, want idle", m.State())
	}
}

// TestMinIntervalThrottles: a second qualifying drift inside
// MinInterval must not fire.
func TestMinIntervalThrottles(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	m := New(r.s, r.c, r.plan, r.sameReplan(), Opts{
		Policy:     Policy{MinInterval: 5000},
		CheckEvery: 100, ReplanLatency: 10,
	})
	m.Start()
	r.scaleFirst(0.5, 2)
	r.s.Run(450) // first trigger + unchanged adoption
	if got := m.Metrics().Triggers; got != 1 {
		t.Fatalf("triggers = %d, want 1", got)
	}
	r.scaleFirst(0.5, 4) // drift again, well past the threshold
	r.s.Run(2000)        // many checks, all inside MinInterval
	if got := m.Metrics().Triggers; got != 1 {
		t.Errorf("triggers = %d inside MinInterval, want still 1", got)
	}
	r.s.Run(6000) // MinInterval passed
	if got := m.Metrics().Triggers; got != 2 {
		t.Errorf("triggers = %d after MinInterval, want 2", got)
	}
}

// TestFailureRearmsAndRetries: a failing replan keeps plan and
// baseline, re-arms, and retries after MinInterval.
func TestFailureRearmsAndRetries(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	calls := 0
	failing := func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		calls++
		return nil, errors.New("solver blew up")
	}
	m := New(r.s, r.c, r.plan, failing, Opts{
		Policy:     Policy{MinInterval: 1000},
		CheckEvery: 100, ReplanLatency: 10,
	})
	m.Start()
	r.scaleFirst(0.5, 2)
	r.s.Run(3000)
	met := m.Metrics()
	if calls < 2 {
		t.Fatalf("failing replan called %d times, want retries after MinInterval", calls)
	}
	if met.ReplanFailed != calls {
		t.Errorf("failures = %d, want %d", met.ReplanFailed, calls)
	}
	if m.CurrentPlan() != r.plan {
		t.Error("failed replans must keep the installed plan")
	}
}

// TestHysteresisBlocksBandHovering: once disarmed with the baseline
// retained at a level where deviation sits inside [Hysteresis×Spread,
// Spread), the trigger must not re-fire until demand first calms below
// the band.
func TestHysteresisBlocksBandHovering(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	m := New(r.s, r.c, r.plan, r.sameReplan(), Opts{
		Policy:     Policy{MinInterval: 100, Deviation: 0.2, Spread: 0.4, Hysteresis: 0.5},
		CheckEvery: 100, ReplanLatency: 10,
	})
	m.Start()
	// Fire once: 50% of flows deviate (spread 0.5 >= 0.4). During the
	// latency window move demand so that, against the adopted
	// snapshot, 30% of flows deviate — inside the [0.2, 0.4) band.
	r.scaleFirst(0.5, 2)
	r.s.Run(150) // check at 100 fires; staging lands at 110
	if got := m.Metrics().Triggers; got != 1 {
		t.Fatalf("triggers = %d, want 1", got)
	}
	r.scaleFirst(0.3, 5) // 30% of flows now differ from the snapshot
	r.s.Run(2000)
	met := m.Metrics()
	if met.LastDeviation < 0.2 || met.LastDeviation >= 0.4 {
		t.Fatalf("deviation = %v, want inside the hysteresis band [0.2, 0.4)", met.LastDeviation)
	}
	if met.Triggers != 1 {
		t.Fatalf("band hovering re-fired: triggers = %d, want 1", met.Triggers)
	}
	// Push past the trigger level while still disarmed: must not fire.
	r.scaleFirst(0.45, 7)
	r.s.Run(2500)
	if got := m.Metrics().Triggers; got != 1 {
		t.Fatalf("disarmed trigger fired: %d, want 1", got)
	}
	// Calm back to the adopted snapshot (first half ×2, rest ×1) to
	// re-arm, then drift again: fires.
	half := int(0.5 * float64(len(r.flows)))
	for i := range r.flows {
		k := 1.0
		if i < half {
			k = 2
		}
		r.s.SetDemand(r.flows[i], r.base[i]*k)
	}
	r.s.Run(2800)
	r.scaleFirst(0.5, 9)
	r.s.Run(3300)
	if got := m.Metrics().Triggers; got != 2 {
		t.Errorf("triggers after calm+redrift = %d, want 2", got)
	}
}

// TestSupersededReplanRestarts: a result whose trigger snapshot the
// demand has already drifted past is abandoned and the replan restarts
// from a fresh snapshot.
func TestSupersededReplanRestarts(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	m := New(r.s, r.c, r.plan, r.sameReplan(), Opts{
		Policy:     Policy{MinInterval: 100},
		CheckEvery: 100, ReplanLatency: 300,
	})
	m.Start()
	r.scaleFirst(0.5, 2)
	r.s.Run(150) // trigger fires at the t=100 check; staging due t=400
	if m.State() != StateReplanning {
		t.Fatalf("state = %v, want replanning", m.State())
	}
	r.scaleFirst(0.5, 8) // demand blows past the trigger snapshot
	r.s.Run(1500)
	met := m.Metrics()
	if met.Superseded != 1 {
		t.Errorf("superseded = %d, want 1", met.Superseded)
	}
	if met.Replans < 2 {
		t.Errorf("replans = %d, want >= 2 (restart after supersession)", met.Replans)
	}
	if m.State() != StateIdle {
		t.Errorf("state = %v, want idle after the restarted cycle", m.State())
	}
}

// driftedPlan returns a plan (planned for k×-scaled demand on the
// rig's pairs) whose tables differ from the rig's installed plan.
func driftedPlan(t testing.TB, r *rig, k float64) *response.Plan {
	t.Helper()
	live := traffic.NewMatrix()
	for i, f := range r.flows {
		m := 1.0
		if i%2 == 0 {
			m = k
		}
		live.Add(f.O, f.D, r.base[i]*m)
	}
	p, err := r.planner.Plan(context.Background(), r.g, response.WithLowMatrix(live))
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() == r.plan.Fingerprint() {
		t.Skip("drifted plan identical on this rig; cannot exercise swap")
	}
	return p
}

// TestStageAndSwapMigratesAndDrains: a forced swap retargets exactly
// the flows whose levels change, drains the old tables, and returns to
// idle with the staged plan installed and its artifact readable.
func TestStageAndSwapMigratesAndDrains(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	m := New(r.s, r.c, r.plan, r.sameReplan(), Opts{
		CheckEvery: 1e9, NoPowerGate: true, // manual staging only
	})
	m.Start()
	r.s.Run(120)
	p2 := driftedPlan(t, r, 3)
	if err := m.StageAndSwap(p2); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateSwapping {
		t.Fatalf("state = %v, want swapping", m.State())
	}
	r.s.Run(400) // wake (5 s) + drain grace (60 s) well past
	met := m.Metrics()
	if m.State() != StateIdle || met.SwapsDone != 1 {
		t.Fatalf("state/swapsDone = %v/%d, want idle/1", m.State(), met.SwapsDone)
	}
	if met.MigratedFlows == 0 || met.MigratedFlows >= len(r.flows) {
		t.Errorf("migrated %d of %d flows, want a proper subset (only changed pairs)",
			met.MigratedFlows, len(r.flows))
	}
	if m.CurrentPlan() != p2 {
		t.Error("staged plan not installed")
	}
	// The staged artifact is the shipped form: re-readable and
	// fingerprint-identical to the installed plan.
	loaded, err := response.ReadPlanFrom(bytes.NewReader(m.StagedArtifact()), r.g)
	if err != nil {
		t.Fatalf("staged artifact unreadable: %v", err)
	}
	if loaded.Fingerprint() != p2.Fingerprint() {
		t.Error("staged artifact fingerprint mismatch")
	}
	// Retargets folded into the controller fingerprint.
	if r.c.Retargets != met.MigratedFlows {
		t.Errorf("controller retargets = %d, want %d", r.c.Retargets, met.MigratedFlows)
	}
}

// TestPowerGate orders two real plans by evaluated power under the
// live matrix and checks the gate rejects exactly the worse direction.
func TestPowerGate(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	r.s.Run(60)
	p2 := driftedPlan(t, r, 3)

	live := traffic.NewMatrix()
	for i, f := range r.flows {
		live.Add(f.O, f.D, r.base[i])
	}
	opts := Opts{}.WithDefaults()
	w1 := r.plan.Evaluate(live, opts.Model, powerGateMaxUtil).Watts
	w2 := p2.Evaluate(live, opts.Model, powerGateMaxUtil).Watts
	if math.Abs(w1-w2) < 1e-6 {
		t.Skip("plans draw identical power; gate direction untestable")
	}
	better, worse := r.plan, p2
	if w2 < w1 {
		better, worse = p2, r.plan
	}
	// Manager holding the better plan must reject the worse one.
	m := New(r.s, r.c, better, r.sameReplan(), Opts{CheckEvery: 1e9})
	m.Start()
	if err := m.StageAndSwap(worse); err != nil {
		t.Fatal(err)
	}
	met := m.Metrics()
	if met.RejectedPower != 1 || met.Swaps != 0 {
		t.Errorf("rejectedPower/swaps = %d/%d, want 1/0", met.RejectedPower, met.Swaps)
	}
	if m.CurrentPlan() != better {
		t.Error("rejected swap must keep the installed plan")
	}
}

// TestRollbackKeepsMissingPairs: pairs absent from the staged plan
// keep their old tables and keep forwarding.
func TestRollbackKeepsMissingPairs(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	r.s.Run(60)
	// Candidate planned over a strict endpoint subset: the dropped
	// pairs have no entry in it.
	endpoints := core.DefaultEndpoints(r.g)
	sub := endpoints[:len(endpoints)/2]
	p2, err := r.planner.Plan(context.Background(), r.g,
		response.WithEndpoints(sub), response.WithLowMatrix(nil))
	if err != nil {
		t.Fatal(err)
	}
	m := New(r.s, r.c, r.plan, r.sameReplan(), Opts{CheckEvery: 1e9, NoPowerGate: true})
	m.Start()
	if err := m.StageAndSwap(p2); err != nil {
		t.Fatal(err)
	}
	r.s.Run(400)
	met := m.Metrics()
	if met.KeptPairs == 0 {
		t.Fatal("no pairs kept despite subset plan")
	}
	// Flows of pairs absent from the staged plan were not retargeted:
	// same *Flow, old tables installed, still forwarding.
	kept := 0
	for i, f := range r.flows {
		if _, inNew := p2.PathSet(f.O, f.D); inNew {
			continue
		}
		kept++
		if f.Removed() {
			t.Fatalf("flow %d of a missing pair was retired", i)
		}
		ps, _ := r.plan.PathSet(f.O, f.D)
		if len(f.Paths) != len(ps.Levels()) || !f.Paths[0].Equal(ps.Levels()[0]) {
			t.Fatalf("flow %d of a missing pair lost its old tables", i)
		}
		if f.Demand > 0 && f.Rate() <= 0 {
			t.Fatalf("flow %d of a missing pair stopped forwarding", i)
		}
	}
	if kept == 0 {
		t.Fatal("subset plan dropped no managed pair; test is vacuous")
	}
}

// TestBackgroundReplanCancellation: Stop cancels an in-flight
// background replan through its context.
func TestBackgroundReplanCancellation(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	canceled := make(chan struct{})
	blocking := func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		<-ctx.Done()
		close(canceled)
		return nil, ctx.Err()
	}
	m := New(r.s, r.c, r.plan, blocking, Opts{
		Policy:     Policy{MinInterval: 100},
		CheckEvery: 100, Background: true,
	})
	m.Start()
	r.scaleFirst(0.5, 2)
	r.s.Run(150)
	if m.State() != StateReplanning {
		t.Fatalf("state = %v, want replanning", m.State())
	}
	m.Stop()
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not cancel the in-flight replan context")
	}
}

// TestBackgroundReplanCompletes: a background replan's result is
// staged at a later check.
func TestBackgroundReplanCompletes(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	m := New(r.s, r.c, r.plan, r.sameReplan(), Opts{
		Policy:     Policy{MinInterval: 100},
		CheckEvery: 100, Background: true,
	})
	m.Start()
	r.scaleFirst(0.5, 2)
	deadline := time.Now().Add(10 * time.Second)
	for m.Metrics().Replans == 0 && time.Now().Before(deadline) {
		r.s.Run(r.s.Now() + 100)
		time.Sleep(time.Millisecond)
	}
	met := m.Metrics()
	if met.Replans == 0 {
		t.Fatal("background replan result never staged")
	}
	if met.Unchanged == 0 && met.Superseded == 0 {
		t.Errorf("metrics = %+v, want the result consumed", met)
	}
}

// TestHistoryReadsWithFig1bMachinery: the per-check fingerprint record
// feeds analysis.Replay, so the live loop's recomputation rate reads
// with the same code that produced Figure 1b.
func TestHistoryReadsWithFig1bMachinery(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	m := New(r.s, r.c, r.plan, r.sameReplan(), Opts{CheckEvery: 600, NoPowerGate: true})
	m.Start()
	r.s.Run(1800)
	p2 := driftedPlan(t, r, 3)
	if err := m.StageAndSwap(p2); err != nil {
		t.Fatal(err)
	}
	r.s.Run(5400)
	h := m.History()
	if h.Recomputations() != 1 {
		t.Errorf("history recomputations = %d, want 1 (one swap)", h.Recomputations())
	}
	rate := h.RatePerHour()
	var total float64
	for _, x := range rate {
		total += x
	}
	if total != 1 {
		t.Errorf("rate-per-hour total = %v, want 1", total)
	}
}

// TestWarmHintReachesReplanAndConverges: the manager attaches the
// promoted plan to the replan context; a warm-started replan after a
// link failure plus demand drift must converge to the same plan a cold
// replan computes from the same live matrix (GÉANT stays in the
// capacity-slack regime, where warm-from-seed is exact).
func TestWarmHintReachesReplanAndConverges(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	var hinted *response.Plan
	var captured *traffic.Matrix
	replan := func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		prev, ok := WarmHint(ctx)
		if !ok {
			t.Error("replan context carries no warm hint")
			return r.planner.Plan(ctx, r.g, response.WithLowMatrix(live))
		}
		hinted = prev
		captured = live.Clone()
		return r.planner.Plan(ctx, r.g,
			response.WithLowMatrix(live), response.WithWarmStartStrict(prev))
	}
	m := New(r.s, r.c, r.plan, replan, Opts{
		Policy:     Policy{MinInterval: 100},
		CheckEvery: 100, ReplanLatency: 10,
		NoPowerGate: true,
	})
	m.Start()
	r.s.Run(250)
	r.s.FailLink(0)
	r.scaleFirst(0.5, 2)
	r.s.Run(600)
	if met := m.Metrics(); met.Replans != 1 {
		t.Fatalf("replans = %d, want 1", met.Replans)
	}
	if hinted != r.plan {
		t.Errorf("warm hint is not the promoted plan")
	}
	cold, err := r.planner.Plan(context.Background(), r.g, response.WithLowMatrix(captured))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.CurrentPlan().Fingerprint(), cold.Fingerprint(); got != want {
		t.Errorf("warm replan fingerprint %016x != cold %016x", got, want)
	}
}

// TestNoWarmStartSuppressesHint: the Opts/Policy knob removes the hint
// from replan contexts, and SetPolicy can flip it at runtime.
func TestNoWarmStartSuppressesHint(t *testing.T) {
	r := newRig(t, 1, 1, 0.3)
	sawHint := false
	replan := func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		_, sawHint = WarmHint(ctx)
		return r.plan, nil
	}
	m := New(r.s, r.c, r.plan, replan, Opts{
		Policy:     Policy{MinInterval: 100, NoWarmStart: true},
		CheckEvery: 100, ReplanLatency: 10,
	})
	m.Start()
	r.s.Run(250)
	r.scaleFirst(0.5, 2)
	r.s.Run(600)
	if m.Metrics().Replans != 1 {
		t.Fatalf("replans = %d, want 1", m.Metrics().Replans)
	}
	if sawHint {
		t.Error("NoWarmStart manager still attached a warm hint")
	}
	if p := m.Policy(); !p.NoWarmStart {
		t.Error("Policy() does not reflect NoWarmStart")
	}
	pol := m.Policy()
	pol.NoWarmStart = false
	if err := m.SetPolicy(pol); err != nil {
		t.Fatal(err)
	}
	r.scaleFirst(0.5, 4)
	r.s.Run(1200)
	if m.Metrics().Replans < 2 {
		t.Fatalf("replans = %d, want >= 2 after repatched policy", m.Metrics().Replans)
	}
	if !sawHint {
		t.Error("re-enabled warm-start did not attach a hint")
	}
}
