package controld

// The replan policy's three ways in and out of the daemon — create,
// PATCH …/config and status — must speak one key set and run one
// validation, and a create the validation refuses must build nothing.

import (
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	ilc "response/internal/lifecycle"
)

// policyKeys returns lifecycle.Policy's wire keys, in field order.
func policyKeys(t *testing.T) []string {
	t.Helper()
	typ := reflect.TypeOf(ilc.Policy{})
	keys := make([]string, typ.NumField())
	for i := range keys {
		key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if key == "" || key == "-" {
			t.Fatalf("lifecycle.Policy.%s has no JSON key: the daemon could neither set nor report it", typ.Field(i).Name)
		}
		keys[i] = key
	}
	return keys
}

// TestPolicyOneKeySet creates a tenant with every policy key set, then
// patches every key, reading each back from status under the same key:
// a field added to lifecycle.Policy needs a value in both probes below
// and nothing else to be creatable, patchable and reported.
func TestPolicyOneKeySet(t *testing.T) {
	onCreate := map[string]any{
		"deviation": 0.3, "spread": 0.4, "hysteresis": 0.6, "min_interval_sec": 700.0,
		"replan_deadline_sec": 50.0, "retry_base_sec": 70.0, "retry_max_sec": 800.0,
		"degraded_after": 5.0, "no_warm_start": true,
	}
	onPatch := map[string]any{
		"deviation": 0.35, "spread": 0.45, "hysteresis": 0.65, "min_interval_sec": 750.0,
		"replan_deadline_sec": 55.0, "retry_base_sec": 75.0, "retry_max_sec": 850.0,
		"degraded_after": -1.0, "no_warm_start": true,
	}
	keys := policyKeys(t)
	for _, probe := range []map[string]any{onCreate, onPatch} {
		if len(probe) != len(keys) {
			t.Fatalf("probe has %d keys, lifecycle.Policy has %d (%v)", len(probe), len(keys), keys)
		}
	}

	// The typed client request cannot drift from the policy either.
	patchType := reflect.TypeOf(PolicyPatch{})
	var patchKeys []string
	for i := 0; i < patchType.NumField(); i++ {
		key, _, _ := strings.Cut(patchType.Field(i).Tag.Get("json"), ",")
		patchKeys = append(patchKeys, key)
	}
	if want := append(append([]string(nil), keys...), "sim_rate"); !reflect.DeepEqual(patchKeys, want) {
		t.Errorf("PolicyPatch keys = %v, want the policy's keys plus sim_rate: %v", patchKeys, want)
	}

	_, c := newTestDaemon(t, Opts{Workers: 1})
	reported := func(where string, want map[string]any) {
		t.Helper()
		var st struct {
			Policy map[string]any `json:"policy"`
		}
		c.req("GET", "/v1/tenants/keys", nil, http.StatusOK, &st)
		for _, k := range keys {
			if got, ok := st.Policy[k]; !ok || got != want[k] {
				t.Errorf("%s: status policy[%q] = %v (present %v), want %v", where, k, got, ok, want[k])
			}
		}
	}
	body := map[string]any{
		"name":     "keys",
		"topology": map[string]any{"gen": map[string]any{"family": "waxman", "size": 8, "seed": 1}},
		"workload": map[string]any{"flows": 30},
		"policy":   onCreate,
	}
	c.req("POST", "/v1/tenants", body, http.StatusCreated, nil)
	reported("create", onCreate)
	c.req("PATCH", "/v1/tenants/keys/config", onPatch, http.StatusOK, nil)
	reported("patch", onPatch)

	// An absent key keeps its value; an unknown one is refused.
	c.req("PATCH", "/v1/tenants/keys/config", map[string]any{"spread": 0.5}, http.StatusOK, nil)
	onPatch["spread"] = 0.5
	reported("partial patch", onPatch)
	c.req("PATCH", "/v1/tenants/keys/config", map[string]any{"deadline_sec": 5}, http.StatusBadRequest, nil)
}

// TestTenantCreateRejectsBadSpec posts specs the parent of this test
// answered 201 to — and then wedged the tenant loop on, or silently
// ignored: each must answer 422 with the same message PATCH gives,
// leave the tenant list untouched and start no goroutine. A valid
// create then still advances promptly.
func TestTenantCreateRejectsBadSpec(t *testing.T) {
	_, c := newTestDaemon(t, Opts{Workers: 1})
	c.req("GET", "/v1/tenants", nil, http.StatusOK, nil) // open the keep-alive connection
	baseline := runtime.NumGoroutine()

	for _, tc := range []struct {
		name, part, json, want string
	}{
		{"negative check cadence", "policy", `{"check_sec": -1}`, "check interval must be > 0"},
		{"spread above 1", "policy", `{"spread": 7}`, "spread must be in (0, 1], got 7"},
		{"negative step", "workload", `{"step_sec": -5}`, "step_sec must be >= 0, got -5"},
		{"negative deviation", "policy", `{"deviation": -1}`, "deviation must be in (0, 10], got -1"},
		{"hysteresis above 1", "policy", `{"hysteresis": 2}`, "hysteresis must be in (0, 1], got 2"},
		{"retry max below base", "policy", `{"retry_base_sec": 60, "retry_max_sec": 10}`, "retry max 10 below retry base 60"},
		{"explicit zero degraded_after", "policy", `{"degraded_after": 0}`, "degraded-after must be nonzero"},
		{"negative latency", "policy", `{"latency_sec": -1}`, "replan latency must be >= 0"},
		{"negative flows", "workload", `{"flows": -1}`, "flows must be >= 0, got -1"},
		{"negative peak", "workload", `{"peak_util": -0.5}`, "peak_util must be >= 0"},
		{"runaway pacing", "workload", `{"sim_rate": 1e7}`, "sim_rate must be in [0, 1e6]"},
	} {
		body := json.RawMessage(`{"name": "bad", "topology": {"gen": {"family": "waxman", "size": 8, "seed": 2}}, "` +
			tc.part + `": ` + tc.json + `}`)
		var apiErr apiError
		c.req("POST", "/v1/tenants", body, http.StatusUnprocessableEntity, &apiErr)
		if !strings.Contains(apiErr.Error, tc.want) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, apiErr.Error, tc.want)
		}
	}
	// The same values, refused by PATCH with the same words.
	c.req("POST", "/v1/tenants", genSpec("good", 2), http.StatusCreated, nil)
	for key, want := range map[string]string{
		`{"spread": 7}`:         "spread must be in (0, 1], got 7",
		`{"degraded_after": 0}`: "degraded-after must be nonzero",
		`{"sim_rate": 1e7}`:     "sim_rate must be in [0, 1e6]",
	} {
		var apiErr apiError
		c.req("PATCH", "/v1/tenants/good/config", json.RawMessage(key), http.StatusUnprocessableEntity, &apiErr)
		if !strings.Contains(apiErr.Error, want) {
			t.Errorf("PATCH %s: error %q, want it to contain %q", key, apiErr.Error, want)
		}
	}
	c.req("DELETE", "/v1/tenants/good", nil, http.StatusNoContent, nil)

	var list []tenantSummary
	c.req("GET", "/v1/tenants", nil, http.StatusOK, &list)
	if len(list) != 0 {
		t.Errorf("tenant list after rejected creates = %+v, want empty", list)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after rejected creates, baseline %d: a rejected spec started something", n, baseline)
	}

	// A step the defaults derive from (step_sec 300: check every 300 s,
	// at least 600 s between replans) is accepted and runs.
	spec := genSpec("stepped", 2)
	spec.Workload.StepSec = 300
	c.req("POST", "/v1/tenants", spec, http.StatusCreated, nil)
	if p := c.status("stepped").Policy; p.MinInterval != 600 || p.RetryMax != 300 {
		t.Errorf("step-derived policy = %+v, want min interval 600, retry max 300", p)
	}
	// A wedged loop would hold the request forever: the client gives up
	// after 5 s and req fails the test.
	c.ts.Client().Timeout = 5 * time.Second
	c.advance("stepped", 3600)
}
