package scenario

import (
	"math"
	"testing"

	"response/internal/lifecycle"
)

// Pinned behavioral fingerprints of the replan scenario at two seeds
// (500 flows, 6 simulated hours): the controller action sequence
// including the retarget/handoff/retire ops of every hot swap. A
// change here means the closed loop — deviation trigger, background
// replan, gating, table hot-swap — changed behavior. Seed 2 was
// re-pinned when the warm subset search gained its early bail (a
// repair that outgrows the warm tolerance now sends the replan to
// the cold pool instead of descending first; one of seed 2's
// deviation replans takes that path).
const (
	replanFingerprintSeed1 = 0xdef13e8d3ba8dd0d
	replanFingerprintSeed2 = 0xd6f998ce53cf6cd3
)

var replanSmall = Config{Flows: 500, Duration: 6 * 3600}

func TestReplanScenarioFingerprints(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want uint64
	}{
		{1, replanFingerprintSeed1},
		{2, replanFingerprintSeed2},
	} {
		cfg := replanSmall
		cfg.Seed = tc.seed
		res, err := Run("replan", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fingerprint != tc.want {
			t.Errorf("seed %d: fingerprint = %016x, want %016x", tc.seed, res.Fingerprint, tc.want)
		}
		if res.Replans == 0 || res.Swaps == 0 || res.MigratedFlows == 0 {
			t.Errorf("seed %d: replans/swaps/migrated = %d/%d/%d, want all > 0 (loop never closed)",
				tc.seed, res.Replans, res.Swaps, res.MigratedFlows)
		}
		if res.DeliveredFrac() < 0.95 {
			t.Errorf("seed %d: delivered %.3f of offered load through the swaps, want >= 0.95",
				tc.seed, res.DeliveredFrac())
		}
	}
}

// TestReplanSwapDisruptionBound verifies the hot-swap disruption
// bound: sampling every managed flow's delivered rate once per probe
// period across the whole replay, no flow slot may sit below
// min(pre-swap rate, current demand) for more than 2 consecutive
// probe periods while a swap (plus its settling tail) is in progress.
func TestReplanSwapDisruptionBound(t *testing.T) {
	cfg := Config{Seed: 1, Flows: 400, Duration: 6 * 3600, Replan: lifecycle.Policy{Deviation: 0.2}}
	r, err := NewGeantDiurnal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	period := r.Ctrl.Period()
	n := len(r.flows)
	preSwap := make([]float64, n) // rate snapshot from the last calm window
	badRuns := make([]int, n)     // consecutive below-floor windows per slot
	const tol = 0.02              // 2% slack for damped-controller jitter
	swapTail := 0                 // windows since the swap completed
	observedSwaps := 0
	lastSwaps := 0

	for now := period; now <= cfg.Duration; now += period {
		r.Advance(period)
		swapping := r.Mgr.State() == lifecycle.StateSwapping
		if s := r.Mgr.Metrics().Swaps; s != lastSwaps {
			lastSwaps = s
			observedSwaps++
		}
		if swapping {
			swapTail = 3 // keep checking through the settling tail
		}
		checking := swapping || swapTail > 0
		if swapTail > 0 {
			swapTail--
		}
		for i, f := range r.flows {
			rate := f.Rate()
			if !checking {
				// Calm window: refresh the pre-swap baseline.
				preSwap[i] = rate
				badRuns[i] = 0
				continue
			}
			floor := math.Min(preSwap[i], f.Demand) * (1 - tol)
			if rate < floor {
				badRuns[i]++
				if badRuns[i] > 2 {
					t.Fatalf("t=%.0f: flow slot %d (%d->%d) below its pre-swap share for %d probe periods: rate %g < floor %g",
						now, i, f.O, f.D, badRuns[i], rate, floor)
				}
			} else {
				badRuns[i] = 0
			}
		}
	}
	if observedSwaps == 0 {
		t.Fatal("no swap occurred; disruption bound untested")
	}
}
