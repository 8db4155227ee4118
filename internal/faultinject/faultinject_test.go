package faultinject

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"response"
	"response/internal/lifecycle"
	"response/internal/topo"
	"response/internal/traffic"
)

// okReplan plans the GÉANT topology for real, so wrapped calls return
// an artifact-serializable plan.
func okReplan(t *testing.T) (lifecycle.ReplanFunc, *response.Plan) {
	t.Helper()
	g := topo.NewGeant()
	plan, err := response.NewPlanner().Plan(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		return plan, nil
	}, plan
}

func callN(t *testing.T, fn lifecycle.ReplanFunc, n int) (errs, panics int) {
	t.Helper()
	for i := 0; i < n; i++ {
		func() {
			defer func() {
				if recover() != nil {
					panics++
				}
			}()
			if _, err := fn(context.Background(), nil); err != nil {
				errs++
			}
		}()
	}
	return errs, panics
}

// TestDeterministicSequence: identical (seed, rates) reproduce the
// identical fault decisions call by call.
func TestDeterministicSequence(t *testing.T) {
	fn, _ := okReplan(t)
	cfg := Config{Seed: 42, ErrorRate: 0.2, InfeasibleRate: 0.1, PanicRate: 0.1, SlowRate: 0.1}
	outcome := func() []string {
		in := New(cfg)
		wrapped := in.WrapReplan(fn)
		var seq []string
		for i := 0; i < 200; i++ {
			func() {
				defer func() {
					if recover() != nil {
						seq = append(seq, "panic")
					}
				}()
				_, err := wrapped(context.Background(), nil)
				switch {
				case err == nil:
					seq = append(seq, "ok")
				case errors.Is(err, ErrInjected):
					seq = append(seq, "err")
				case errors.Is(err, response.ErrInfeasible):
					seq = append(seq, "infeasible")
				default:
					seq = append(seq, "other")
				}
			}()
		}
		return seq
	}
	a, b := outcome(), outcome()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestFailFirst: the outage window fails exactly the first N calls
// regardless of rates.
func TestFailFirst(t *testing.T) {
	fn, _ := okReplan(t)
	in := New(Config{Seed: 1, FailFirst: 4})
	wrapped := in.WrapReplan(fn)
	for i := 0; i < 4; i++ {
		if _, err := wrapped(context.Background(), nil); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: err = %v, want ErrInjected", i, err)
		}
	}
	if _, err := wrapped(context.Background(), nil); err != nil {
		t.Fatalf("call after the outage window: err = %v, want nil", err)
	}
	c := in.Counts()
	if c.Errors != 4 || c.Replans != 5 {
		t.Errorf("counts = %+v, want 4 errors over 5 replans", c)
	}
}

// TestRates: at rate 1 every call faults; at rate 0 none do; the
// error classes map to the errors the lifecycle manager classifies.
func TestRates(t *testing.T) {
	fn, _ := okReplan(t)

	errs, _ := callN(t, New(Config{Seed: 1, ErrorRate: 1}).WrapReplan(fn), 50)
	if errs != 50 {
		t.Errorf("ErrorRate 1: %d/50 errors", errs)
	}
	_, panics := callN(t, New(Config{Seed: 1, PanicRate: 1}).WrapReplan(fn), 50)
	if panics != 50 {
		t.Errorf("PanicRate 1: %d/50 panics", panics)
	}
	errs, panics = callN(t, New(Config{Seed: 1}).WrapReplan(fn), 50)
	if errs != 0 || panics != 0 {
		t.Errorf("zero config: %d errors, %d panics, want none", errs, panics)
	}
	in := New(Config{Seed: 1, InfeasibleRate: 1})
	if _, err := in.WrapReplan(fn)(context.Background(), nil); !errors.Is(err, response.ErrInfeasible) {
		t.Errorf("infeasible fault: err = %v, want ErrInfeasible", err)
	}
}

// TestSlowNeedsBudget: the slow fault only fires when the context
// carries a replan budget; without a deadline the slowness is
// harmless.
func TestSlowNeedsBudget(t *testing.T) {
	calls := 0
	fn := lifecycle.ReplanFunc(func(ctx context.Context, live *traffic.Matrix) (*response.Plan, error) {
		calls++
		return nil, nil
	})
	wrapped := New(Config{Seed: 1, SlowRate: 1}).WrapReplan(fn)
	if _, err := wrapped(context.Background(), nil); err != nil {
		t.Fatalf("no budget: err = %v, want pass-through", err)
	}
	if calls != 1 {
		t.Fatalf("no budget: underlying replan not called")
	}
	// lifecycle.Policy.ReplanDeadline attaches the budget; reproduce it
	// through a manager-independent probe: the injector only sees the
	// context, so any budget-carrying ctx triggers the fault. The only
	// way to build one is through the manager, so assert via error
	// class on a real manager in the scenario soak; here assert the
	// pass-through behavior and the counter.
	if got := New(Config{Seed: 1, SlowRate: 1}).Counts().Slow; got != 0 {
		t.Errorf("fresh injector counts %d slow faults", got)
	}
}

// TestArtifactFilterRoundTrip: corrupted artifacts never survive the
// plan round trip — exactly what the lifecycle staging gate relies on
// — and the filter never mutates its input.
func TestArtifactFilterRoundTrip(t *testing.T) {
	_, plan := okReplan(t)
	var buf bytes.Buffer
	if _, err := plan.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	orig := append([]byte(nil), good...)

	in := New(Config{Seed: 7, CorruptRate: 0.5, TruncateRate: 0.5})
	filter := in.ArtifactFilter()
	for i := 0; i < 40; i++ {
		out := filter(good)
		if !bytes.Equal(good, orig) {
			t.Fatal("filter mutated its input slice")
		}
		loaded, err := response.ReadPlanFrom(bytes.NewReader(out), plan.Topology())
		if err == nil && loaded.Fingerprint() != plan.Fingerprint() {
			t.Fatalf("corrupted artifact round-tripped to a different plan undetected")
		}
		if err == nil && !bytes.Equal(out, good) {
			t.Fatalf("mangled bytes loaded cleanly: corruption the gate cannot see")
		}
	}
	c := in.Counts()
	if c.Corrupted+c.Truncated != 40 {
		t.Errorf("counts = %+v, want every call mangled at combined rate 1", c)
	}
	if c.Faults() != 40 {
		t.Errorf("Faults() = %d, want 40", c.Faults())
	}
}

// TestAny: the zero config injects nothing and says so.
func TestAny(t *testing.T) {
	if (Config{}).Any() {
		t.Error("zero config reports Any")
	}
	for _, c := range []Config{
		{FailFirst: 1}, {ErrorRate: 0.1}, {InfeasibleRate: 0.1}, {PanicRate: 0.1},
		{SlowRate: 0.1}, {CorruptRate: 0.1}, {TruncateRate: 0.1},
	} {
		if !c.Any() {
			t.Errorf("config %+v reports no faults", c)
		}
	}
}
