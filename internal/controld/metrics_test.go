package controld

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"testing"

	ilc "response/internal/lifecycle"
)

// TestLifecycleMetricsMatchStatus runs a tenant through injected replan
// errors and corrupt artifacts, then requires every lifecycle family on
// /metrics to equal the matching field of GET /v1/tenants/{t}: the two
// read one published count, so a failure path cannot be counted on one
// surface and not the other.
func TestLifecycleMetricsMatchStatus(t *testing.T) {
	_, c := newTestDaemon(t, Opts{Workers: 1})
	spec := genSpec("m1", 3)
	spec.Policy = &PolicySpec{
		Policy:   ilc.Policy{MinInterval: 900, DegradedAfter: 2},
		CheckSec: 900, LatencySec: 1,
	}
	spec.Faults = &FaultSpec{Seed: 5, FailFirst: 2, CorruptRate: 0.5}
	c.req("POST", "/v1/tenants", spec, http.StatusCreated, nil)

	var st TenantStatus
	for round := 0; round < 200; round++ {
		c.advance("m1", 900)
		st = c.status("m1")
		if st.Metrics.RejectedInvalid > 0 && st.Metrics.ReplanFailed > 0 && st.Metrics.DegradedEntered > 0 {
			break
		}
	}
	m := st.Metrics
	if m.RejectedInvalid == 0 || m.ReplanFailed == 0 || m.DegradedEntered == 0 {
		t.Fatalf("the faults never produced a replan error, a corrupt-artifact rejection and a degraded entry: %+v", m)
	}

	got := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(c.getText("/metrics", http.StatusOK)))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), `{tenant="m1"} `)
		if !ok || !strings.HasPrefix(name, "response_lifecycle_") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%s: %v", sc.Text(), err)
		}
		got[strings.TrimPrefix(name, "response_lifecycle_")] = v
	}
	want := map[string]float64{
		"checks_total":                float64(m.Checks),
		"triggers_total":              float64(m.Triggers),
		"replans_total":               float64(m.Replans),
		"replans_failed_total":        float64(m.ReplanFailed),
		"replan_timeouts_total":       float64(m.ReplanTimeouts),
		"replan_panics_total":         float64(m.ReplanPanics),
		"rejected_invalid_total":      float64(m.RejectedInvalid),
		"rejected_power_total":        float64(m.RejectedPower),
		"unchanged_total":             float64(m.Unchanged),
		"superseded_total":            float64(m.Superseded),
		"retries_total":               float64(m.Retries),
		"swaps_total":                 float64(m.Swaps),
		"swaps_done_total":            float64(m.SwapsDone),
		"migrated_flows_total":        float64(m.MigratedFlows),
		"swap_duration_seconds_total": m.SwapSec,
		"degraded_entered_total":      float64(m.DegradedEntered),
		"degraded_exited_total":       float64(m.DegradedExited),
		"degraded_seconds_total":      m.DegradedSec,
		"sim_seconds":                 st.SimNow,
	}
	for family, w := range want {
		g, ok := got[family]
		switch {
		case !ok:
			t.Errorf("/metrics has no response_lifecycle_%s sample for the tenant", family)
		case g != w:
			t.Errorf("response_lifecycle_%s = %v on /metrics, %v in the status document", family, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("/metrics has %d lifecycle families, the test checks %d: map the new one", len(got), len(want))
	}
}
