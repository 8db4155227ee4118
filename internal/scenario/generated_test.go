package scenario

// Scenario runs over generated topologies (ISSUE 5): the online
// runtime — simulator, controller, lifecycle manager — must drive
// topogen instances exactly as it drives the built-in networks, and
// its incremental allocator must stay behaviorally identical to the
// global reference mode on them.

import (
	"testing"

	"response/internal/lifecycle"
	"response/internal/topogen"
)

func generatedInstance(t *testing.T, fam topogen.Family, size int, seed int64) *topogen.Instance {
	t.Helper()
	inst, err := topogen.Generate(topogen.Config{Family: fam, Size: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestGeneratedDiurnalScenario replays a diurnal day on a generated
// Waxman mesh under both allocator modes: the runs must carry load and
// agree action for action (identical controller fingerprints).
func TestGeneratedDiurnalScenario(t *testing.T) {
	inst := generatedInstance(t, topogen.FamilyWaxman, 16, 2)
	run := func(full bool) Result {
		cfg := Config{Seed: 5, Flows: 300, Duration: 2 * 3600, FullAllocate: full}
		r, err := NewDiurnal(inst.Topo, inst.Endpoints, cfg)
		if err != nil {
			t.Fatalf("full=%v: %v", full, err)
		}
		r.Advance(cfg.Duration)
		return r.Finish()
	}
	inc, ref := run(false), run(true)
	if inc.Fingerprint != ref.Fingerprint {
		t.Errorf("allocator modes diverge on generated topology: %016x vs %016x",
			inc.Fingerprint, ref.Fingerprint)
	}
	if inc.Flows != 300 {
		t.Errorf("flows = %d, want 300", inc.Flows)
	}
	// The matched peak sits at 0.6 of the multipath max-flow; fixed
	// 3-level tables retain less than that on irregular meshes (see
	// verify.TableScale), so high-but-not-full delivery is the correct
	// steady state here.
	if f := inc.DeliveredFrac(); f < 0.85 {
		t.Errorf("delivered fraction %.3f < 0.85 on generated topology", f)
	}
	if inc.Decisions == 0 {
		t.Error("controller made no decisions over a simulated day")
	}
}

// TestGeneratedScenarioDeterminism: identical Config on the same
// generated instance reproduces the identical Result fingerprint.
func TestGeneratedScenarioDeterminism(t *testing.T) {
	inst := generatedInstance(t, topogen.FamilyISP, 4, 3)
	run := func() Result {
		r, err := NewDiurnal(inst.Topo, inst.Endpoints, Config{Seed: 9, Flows: 200, Duration: 7200})
		if err != nil {
			t.Fatal(err)
		}
		r.Advance(7200)
		return r.Finish()
	}
	a, b := run(), run()
	if a.Fingerprint != b.Fingerprint || a.DeliveredBytes != b.DeliveredBytes {
		t.Errorf("generated scenario not deterministic: %016x/%.1f vs %016x/%.1f",
			a.Fingerprint, a.DeliveredBytes, b.Fingerprint, b.DeliveredBytes)
	}
}

// TestGeneratedReplanScenario closes the lifecycle loop on a generated
// network: diurnal drift past the deviation threshold must trigger
// replans and complete hot swaps mid-replay, with the books intact.
func TestGeneratedReplanScenario(t *testing.T) {
	inst := generatedInstance(t, topogen.FamilyWaxman, 14, 6)
	cfg := Config{
		Seed:     4,
		Flows:    200,
		Duration: 12 * 3600,
		Replan:   lifecycle.Policy{Deviation: 0.1, Spread: 0.25},
	}
	r, err := NewDiurnal(inst.Topo, inst.Endpoints, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mgr == nil {
		t.Fatal("replan config did not attach a lifecycle manager")
	}
	r.Advance(cfg.Duration)
	res := r.Finish()
	met := r.Mgr.Metrics()
	if met.Checks == 0 {
		t.Fatal("lifecycle manager never checked for deviation")
	}
	if met.Replans == 0 {
		t.Errorf("no replan fired over half a simulated day of drift (metrics %+v)", met)
	}
	if met.SwapsDone != res.Swaps {
		t.Errorf("swaps done %d vs result %d", met.SwapsDone, res.Swaps)
	}
	if f := res.DeliveredFrac(); f < 0.9 {
		t.Errorf("delivered fraction %.3f < 0.9 across replans", f)
	}
}
