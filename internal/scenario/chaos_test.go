package scenario

// The chaos soak: the acceptance harness for the correlated-failure
// model and the fault-injected control loop. On three generated
// families it drives an SRLG cascade storm through a lifecycle manager
// whose replan path faults at up to 50 % — and requires the invariant
// checker clean, Degraded always entered AND exited, no starving flows
// outside the disruption window, and (in the oblivious regime) a
// post-recovery data plane bit-identical to a fault-free run at the
// same seed.

import (
	"testing"

	"response/internal/faultinject"
	"response/internal/lifecycle"
	"response/internal/topogen"
	"response/internal/verify"
)

// soakFamilies: the ≥3 generated families the acceptance criterion
// names. Sizes keep each run in the seconds range so the soak stays
// race-detector friendly.
func soakFamilies() []topogen.Config {
	return []topogen.Config{
		{Family: topogen.FamilyFatTree, Size: 4, Seed: 1},
		{Family: topogen.FamilyISP, Size: 4, Seed: 2},
		{Family: topogen.FamilyWaxman, Size: 20, Seed: 3},
	}
}

// chaosConfig is the storm-plus-faults regime: two shared-risk groups
// cut whole at t=4800 s with cascades behind them, while the replan
// path errors half the time and panics, stalls, and corrupts artifacts
// on top. FailFirst ≥ DegradedAfter guarantees the manager reaches
// Degraded on the first trigger, so the exit path is always exercised.
func chaosConfig(inst *topogen.Instance, seed int64) Config {
	return Config{
		Seed:     seed,
		Flows:    300,
		Duration: 4 * 3600,
		StepSec:  900,
		PeakUtil: 0.6,

		SRLGs:       inst.SRLGs,
		StormSRLGs:  2,
		StormAt:     4800,
		CascadeProb: 0.5,
		RepairAfter: 900,
		RepairEvery: 300,

		Replan: lifecycle.Policy{Deviation: 0.2, ReplanDeadline: 900, DegradedAfter: 2},
		Faults: faultinject.Config{
			FailFirst: 2, ErrorRate: 0.5, PanicRate: 0.05,
			SlowRate: 0.1, CorruptRate: 0.1, TruncateRate: 0.05,
		},
	}
}

// disruptionEnd bounds the storm window: last scheduled repair of the
// worst case (every group link plus every possible cascade casualty on
// the rolling schedule) plus the sleep/settle transient.
func disruptionEnd(cfg Config, cuts int) float64 {
	cascadeTail := float64(cascadeDepth * cascadeDelay)
	repairs := cfg.RepairAfter + float64(cuts)*cfg.RepairEvery
	return cfg.StormAt + cascadeTail + repairs + 120
}

func TestChaosSoakGeneratedFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	for _, tc := range soakFamilies() {
		tc := tc
		t.Run(string(tc.Family), func(t *testing.T) {
			inst, err := topogen.Generate(tc)
			if err != nil {
				t.Fatal(err)
			}
			if rep := verify.CheckSRLGs(inst.Topo, inst.SRLGs); !rep.Ok() {
				t.Fatal(rep.Err())
			}
			cfg := chaosConfig(inst, 100+tc.Seed)
			cfg.defaults()
			r, err := NewDiurnal(inst.Topo, inst.Endpoints, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Calm before the storm: nothing may starve.
			r.Advance(cfg.StormAt - 10)
			if n := r.Starving(); n != 0 {
				t.Fatalf("%d flows starving before the storm", n)
			}

			// Through the storm, cascades and rolling repairs.
			r.Advance(cfg.Duration - (cfg.StormAt - 10))
			if end := disruptionEnd(cfg, len(flattenGroups(r.stormGroups))+r.cascaded); end > cfg.Duration {
				t.Fatalf("disruption window %.0f s overruns the %g s horizon; shrink the repair schedule", end, cfg.Duration)
			}

			// The manager must always leave Degraded: with faults still
			// firing at 50 % the exit is probabilistic per retry, so give
			// the backoff loop a bounded cooldown to land a success.
			for extra := 0.0; r.Mgr.State() == lifecycle.StateDegraded; extra += cfg.StepSec {
				if extra >= 2*3600 {
					t.Fatalf("manager still Degraded %.0f s after the horizon", extra)
				}
				r.Advance(cfg.StepSec)
			}

			res := r.Finish()
			if !res.Healthy() {
				t.Errorf("final state %q, want healthy", res.FinalState)
			}
			if res.DegradedEntered == 0 {
				t.Error("manager never entered Degraded despite FailFirst ≥ DegradedAfter")
			}
			if res.DegradedEntered != res.DegradedExited {
				t.Errorf("degraded entered %d times but exited %d", res.DegradedEntered, res.DegradedExited)
			}
			if res.ReplanFailed == 0 || res.InjectedFaults == 0 {
				t.Errorf("fault injection idle: %d failed cycles, %d injected faults",
					res.ReplanFailed, res.InjectedFaults)
			}
			if res.Failed == 0 || res.Repaired != res.Failed {
				t.Errorf("failed %d links, repaired %d — storm or repair schedule broken",
					res.Failed, res.Repaired)
			}
			if n := r.Starving(); n != 0 {
				t.Errorf("%d flows starving after recovery", n)
			}

			// The surviving control state must satisfy every invariant:
			// the installed plan's tables and the SRLG model stay clean.
			tb := r.Mgr.CurrentPlan().Tables()
			if rep := verify.CheckTables(inst.Topo, tb, verify.Opts{}); !rep.Ok() {
				t.Errorf("post-chaos tables: %v", rep.Err())
			}
		})
	}
}

// flattenGroups counts the distinct links the SRLG storm cut.
func flattenGroups(groups []topogen.SRLG) []int {
	seen := map[int]bool{}
	for _, g := range groups {
		for _, l := range g.Links {
			seen[int(l)] = true
		}
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	return out
}

// TestChaosFingerprintMatchesFaultFree: the recovery-exactness half of
// the acceptance criterion. In the oblivious regime (replans recompute
// the plan-time answer, load too low for any load-driven shift or
// cascade) a fault-injected run and a fault-free run at the same seed
// must converge to bit-identical data planes once the degraded pin is
// restored and the sleep transients settle — proving chaos touched
// nothing durable.
func TestChaosFingerprintMatchesFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos fingerprint soak in -short mode")
	}
	for _, tc := range soakFamilies() {
		tc := tc
		t.Run(string(tc.Family), func(t *testing.T) {
			inst, err := topogen.Generate(tc)
			if err != nil {
				t.Fatal(err)
			}
			run := func(faulty bool, minHorizon float64) (Result, uint64, int, float64) {
				cfg := chaosConfig(inst, 200+tc.Seed)
				cfg.PeakUtil = 0.04 // shift-free: nothing ever crosses the TE threshold
				cfg.ObliviousReplan = true
				if !faulty {
					cfg.Faults = faultinject.Config{}
				}
				cfg.defaults()
				r, err := NewDiurnal(inst.Topo, inst.Endpoints, cfg)
				if err != nil {
					t.Fatal(err)
				}
				r.Advance(cfg.Duration)
				horizon := cfg.Duration
				// Cooldown until the manager has been out of Degraded for
				// two whole steps: the exit restores the plan's pin, and
				// the awakened links need SleepAfterIdle to re-sleep before
				// the data plane is comparable.
				for extra, settled := 0.0, 0; settled < 2; extra += cfg.StepSec {
					if extra >= 2*3600 {
						t.Fatalf("faulty=%v: still Degraded %.0f s past the horizon", faulty, extra)
					}
					r.Advance(cfg.StepSec)
					horizon += cfg.StepSec
					if r.Mgr.State() == lifecycle.StateDegraded {
						settled = 0
					} else {
						settled++
					}
				}
				// Equal horizons: both runs must end at the same simulated
				// instant, or the diurnal phase alone would split the
				// fingerprints. The twin advances to whichever horizon is
				// longer; StateFingerprint is compared only then.
				if horizon < minHorizon {
					r.Advance(minHorizon - horizon)
					horizon = minHorizon
				}
				return r.Finish(), r.Sim.StateFingerprint(), r.Ctrl.Shifts, horizon
			}

			faultyRes, faultyFP, faultyShifts, horizon := run(true, 0)
			if faultyRes.DegradedEntered == 0 || faultyRes.DegradedEntered != faultyRes.DegradedExited {
				t.Fatalf("faulty run degraded entered/exited = %d/%d, want matched and > 0",
					faultyRes.DegradedEntered, faultyRes.DegradedExited)
			}
			if faultyRes.Swaps != 0 {
				t.Fatalf("oblivious run staged %d swaps; fingerprint comparison void", faultyRes.Swaps)
			}

			cleanRes, cleanFP, cleanShifts, cleanHorizon := run(false, horizon)
			if cleanHorizon != horizon {
				t.Fatalf("horizons diverged: %.0f faulty vs %.0f clean; comparison void", horizon, cleanHorizon)
			}
			// At 4 % load nothing crosses the TE threshold, so every shift
			// is a storm failover — and the storm is identical in both
			// runs. Unequal counts would mean the fault injection leaked
			// into the controller's decisions.
			if faultyShifts != cleanShifts {
				t.Fatalf("shifts = %d faulty / %d clean; fault injection leaked into TE decisions",
					faultyShifts, cleanShifts)
			}
			if cleanRes.DegradedEntered != 0 {
				t.Fatalf("fault-free run entered Degraded %d times", cleanRes.DegradedEntered)
			}
			if faultyFP != cleanFP {
				t.Errorf("post-recovery state fingerprint %016x differs from fault-free %016x",
					faultyFP, cleanFP)
			}
		})
	}
}
