package experiments

import (
	"context"
	"testing"
	"time"

	"response"
	"response/internal/topogen"
)

// TestWarmReplanNotSlowerFatTree6 pins the k=6 fat-tree warm-replan
// regression (a drifted-demand warm replan once ran 8 % slower than the
// cold one on this instance): when the warm seed cannot help — the
// repaired hint already burns more power than the tolerance admits —
// the warm plan must bail to the cold search early instead of paying
// for a doomed descent on top of the cold plan. The pin is warm ≤ cold
// × 1.1 (min of three runs each, so scheduler noise does not flake the
// bound).
func TestWarmReplanNotSlowerFatTree6(t *testing.T) {
	if testing.Short() {
		t.Skip("timing regression test; skipped in -short")
	}
	cfg := topogen.Config{
		Family: topogen.FamilyFatTree, Size: 6, Seed: 1,
		PeakUtil: 0.5, MaxEndpoints: 20,
	}
	inst, err := topogen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	planner := response.NewPlanner(
		response.WithEndpoints(inst.Endpoints),
		response.WithRestarts(0),
		response.WithSeed(cfg.Seed),
	)
	ctx := context.Background()
	plan, err := planner.Plan(ctx, inst.Topo)
	if err != nil {
		t.Fatal(err)
	}

	const runs = 3
	cold, warm := time.Duration(1<<62), time.Duration(1<<62)
	var coldFP, warmFP uint64
	for i := 0; i < runs; i++ {
		start := time.Now()
		planB, err := planner.Plan(ctx, inst.Topo, response.WithLowMatrix(inst.TM))
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < cold {
			cold = d
		}
		coldFP = planB.Fingerprint()

		start = time.Now()
		planW, err := planner.Plan(ctx, inst.Topo,
			response.WithLowMatrix(inst.TM), response.WithWarmStart(plan))
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < warm {
			warm = d
		}
		warmFP = planW.Fingerprint()
	}
	t.Logf("cold %v warm %v identical=%v", cold, warm, coldFP == warmFP)
	if warm > cold+cold/10 {
		t.Fatalf("warm replan %v exceeds cold %v x 1.1", warm, cold)
	}
}
