package scenario

import (
	"strings"
	"testing"

	"response/internal/lifecycle"
)

// Pinned behavioral fingerprints — the online analog of the planner's
// TestPlanFingerprints. A change here means the online runtime's
// decision/shift sequence changed: either an intentional behavioral
// change (update the constants, explain in the commit) or a regression.
const (
	clickFingerprint = 0x002a7288ebf8d3ee
	geantFingerprint = 0x740ef45a3b9b9c82
	clickShifts      = 4
	clickWakes       = 2
	clickDecisions   = 46
)

func TestClickFailoverFingerprint(t *testing.T) {
	res, err := ClickFailover(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != clickFingerprint {
		t.Errorf("click fingerprint = %016x, want %016x", res.Fingerprint, uint64(clickFingerprint))
	}
	// The global reference allocator must walk the identical sequence.
	ful, err := ClickFailover(Config{FullAllocate: true})
	if err != nil {
		t.Fatal(err)
	}
	if ful.Fingerprint != res.Fingerprint {
		t.Errorf("full-allocate click fingerprint = %016x, want %016x", ful.Fingerprint, res.Fingerprint)
	}
	if res.Shifts != clickShifts || res.Wakes != clickWakes || res.Decisions != clickDecisions {
		t.Errorf("click counters = %d/%d/%d (decisions/shifts/wakes), want %d/%d/%d",
			res.Decisions, res.Shifts, res.Wakes, clickDecisions, clickShifts, clickWakes)
	}
	if res.DeliveredFrac() < 0.98 {
		t.Errorf("click delivered %.3f of offered load, want >= 0.98", res.DeliveredFrac())
	}
}

var geantSmall = Config{Seed: 1, Flows: 500, Duration: 2 * 3600}

func TestGeantDiurnalFingerprint(t *testing.T) {
	res, err := Run("diurnal", geantSmall)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != geantFingerprint {
		t.Errorf("geant diurnal fingerprint = %016x, want %016x", res.Fingerprint, uint64(geantFingerprint))
	}
	if res.Flows != 500 {
		t.Errorf("flows = %d, want 500", res.Flows)
	}
	if res.DeliveredFrac() < 0.9 {
		t.Errorf("delivered %.3f, want >= 0.9", res.DeliveredFrac())
	}
}

// TestFullAllocateSameBehavior cross-checks the incremental allocator
// against the global reference solve on a whole scenario: identical
// decision sequences, so identical fingerprints and counters.
func TestFullAllocateSameBehavior(t *testing.T) {
	inc, err := Run("diurnal", geantSmall)
	if err != nil {
		t.Fatal(err)
	}
	cfg := geantSmall
	cfg.FullAllocate = true
	ful, err := Run("diurnal", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Fingerprint != ful.Fingerprint {
		t.Errorf("incremental fingerprint %016x != full-allocate %016x", inc.Fingerprint, ful.Fingerprint)
	}
	if inc.Shifts != ful.Shifts || inc.Wakes != ful.Wakes || inc.Decisions != ful.Decisions {
		t.Errorf("counters diverge: incremental %d/%d/%d, full %d/%d/%d",
			inc.Decisions, inc.Shifts, inc.Wakes, ful.Decisions, ful.Shifts, ful.Wakes)
	}
}

// TestScenariosDeterministic: every preset reproduces its result
// exactly under the same seed.
func TestScenariosDeterministic(t *testing.T) {
	for _, name := range Names() {
		cfg := Config{Seed: 7, Flows: 300, Duration: 3600}
		a, err := Run(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Run(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b {
			t.Errorf("%s: results differ across identical runs:\n  %+v\n  %+v", name, a, b)
		}
	}
}

// TestStormAndRepair: a correlated failure storm degrades delivery,
// rolling repair restores the failed links, and the seeded choices are
// visible in the result.
func TestStormAndRepair(t *testing.T) {
	cfg := Config{Seed: 3, Flows: 300, Duration: 2 * 3600}
	storm, err := Run("storm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if storm.Failed == 0 || storm.Repaired != 0 {
		t.Errorf("storm failed/repaired = %d/%d, want >0/0", storm.Failed, storm.Repaired)
	}
	rep, err := Run("repair", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != rep.Failed {
		t.Errorf("repair restored %d of %d links", rep.Repaired, rep.Failed)
	}
	calm, err := Run("diurnal", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if storm.DeliveredFrac() > calm.DeliveredFrac()+1e-9 {
		t.Errorf("storm delivered %.4f, calm %.4f: storm should not beat calm",
			storm.DeliveredFrac(), calm.DeliveredFrac())
	}
}

// TestFlashCrowdRaisesLoad: the flash subset visibly raises offered
// and shifts relative to the plain diurnal run.
func TestFlashCrowdRaisesLoad(t *testing.T) {
	cfg := Config{Seed: 5, Flows: 300, Duration: 2 * 3600, FlashFactor: 4, FlashFraction: 0.2}
	flash, err := Run("flash", cfg)
	if err != nil {
		t.Fatal(err)
	}
	calm, err := Run("diurnal", Config{Seed: 5, Flows: 300, Duration: 2 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	if flash.OfferedBytes <= calm.OfferedBytes {
		t.Errorf("flash offered %.0f <= calm %.0f", flash.OfferedBytes, calm.OfferedBytes)
	}
}

func TestUnknownScenario(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Error("unknown scenario did not error")
	}
}

// TestConfigRefusesWedgingSettings: a negative step made Advance book
// demand steps backwards forever, and a replan policy the lifecycle
// manager cannot run used to reach it unexamined. Both are refused
// before anything is planned.
func TestConfigRefusesWedgingSettings(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{StepSec: -5}, "step must be > 0"},
		{Config{Duration: -1}, "duration must be > 0"},
		{Config{Replan: lifecycle.Policy{Deviation: 0.2, Spread: 7}}, "spread must be in (0, 1]"},
		{Config{Replan: lifecycle.Policy{Deviation: -1}}, "deviation must be in (0, 10]"},
		{Config{Replan: lifecycle.Policy{Deviation: 0.2}, ReplanCheck: -1}, "check interval must be > 0"},
	} {
		if _, err := NewGeantDiurnal(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewGeantDiurnal(%+v) error = %v, want %q", tc.cfg, err, tc.want)
		}
	}
	// Zero fields of Replan resolve step-derived, then lifecycle, defaults.
	opts := Config{StepSec: 300, Replan: lifecycle.Policy{Deviation: 0.1}}.ReplanOpts()
	if opts.CheckEvery != 300 || opts.MinInterval != 600 || opts.RetryMax != 300 || opts.Spread != 0.25 {
		t.Errorf("ReplanOpts at step 300 = %+v", opts)
	}
}
