package controld

// End-to-end exercise of the management API over real HTTP: tenant
// registration (generated, inline and builtin topologies), manual
// time, plan jobs, artifact shelving/diffing/promotion/rollback, hot
// config patches, the event stream and graceful drain. Tenants run in
// manual-time mode (sim_rate 0) so every assertion is deterministic:
// simulated time moves only when the test POSTs an advance.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"response"
	ilc "response/internal/lifecycle"
)

// testClient wraps an httptest server with JSON helpers.
type testClient struct {
	t  *testing.T
	ts *httptest.Server
}

func newTestDaemon(t *testing.T, opts Opts) (*Server, *testClient) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, &testClient{t: t, ts: ts}
}

// req performs one JSON request and decodes the response into out
// (skipped when out is nil). It fails the test unless the status
// matches want.
func (c *testClient) req(method, path string, body any, want int, out any) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.ts.URL+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.ts.Client().Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		c.t.Fatalf("%s %s: status %d, want %d; body: %s", method, path, resp.StatusCode, want, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
}

// genSpec is the small generated tenant the tests register.
func genSpec(name string, seed int64) TenantSpec {
	return TenantSpec{
		Name:     name,
		Topology: TopologySpec{Gen: &GenSpec{Family: "waxman", Size: 8, Seed: seed}},
		Workload: &WorkloadSpec{Flows: 30, Seed: seed},
	}
}

func (c *testClient) advance(name string, simSec float64) {
	c.t.Helper()
	c.req("POST", "/v1/tenants/"+name+"/advance", advanceRequest{SimSec: simSec}, http.StatusOK, nil)
}

func (c *testClient) status(name string) TenantStatus {
	c.t.Helper()
	var st TenantStatus
	c.req("GET", "/v1/tenants/"+name, nil, http.StatusOK, &st)
	return st
}

// waitJob polls a job until it reaches a terminal state.
func (c *testClient) waitJob(tenant, id string) jobView {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v jobView
		c.req("GET", "/v1/tenants/"+tenant+"/jobs/"+id, nil, http.StatusOK, &v)
		switch v.State {
		case JobDone, JobFailed, JobCanceled:
			return v
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s stuck in state %q", id, v.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	s, c := newTestDaemon(t, Opts{Workers: 2, MaxArtifacts: 4})

	var health struct {
		OK      bool `json:"ok"`
		Tenants int  `json:"tenants"`
	}
	c.req("GET", "/v1/healthz", nil, http.StatusOK, &health)
	if !health.OK || health.Tenants != 0 {
		t.Fatalf("healthz = %+v", health)
	}

	// Register a generated tenant; re-registration conflicts; a spec
	// without a topology is rejected with nothing half-created.
	var created TenantStatus
	c.req("POST", "/v1/tenants", genSpec("alpha", 1), http.StatusCreated, &created)
	if created.Name != "alpha" || created.Flows != 30 || created.State != "idle" {
		t.Fatalf("created = %+v", created)
	}
	if created.Promoted == "" {
		t.Fatal("initial plan was not shelved as the promoted artifact")
	}
	c.req("POST", "/v1/tenants", genSpec("alpha", 2), http.StatusConflict, nil)
	c.req("POST", "/v1/tenants", TenantSpec{Name: "broken"}, http.StatusUnprocessableEntity, nil)
	c.req("POST", "/v1/tenants", TenantSpec{
		Name:     "Bad Name!",
		Topology: TopologySpec{Builtin: "geant"},
	}, http.StatusUnprocessableEntity, nil)

	// Inline topology: a 4-node ring of 10 Gbps links.
	inline := TenantSpec{
		Name: "ringo",
		Topology: TopologySpec{Inline: &InlineTopology{
			Name: "tiny-ring",
			Nodes: []InlineNode{
				{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"},
			},
			Links: []InlineLink{
				{A: "a", B: "b", CapacityGbps: 10}, {A: "b", B: "c", CapacityGbps: 10},
				{A: "c", B: "d", CapacityGbps: 10}, {A: "d", B: "a", CapacityGbps: 10},
			},
		}},
		Workload: &WorkloadSpec{Flows: 12},
	}
	c.req("POST", "/v1/tenants", inline, http.StatusCreated, nil)
	// A disconnected inline topology is refused.
	bad := inline
	bad.Name = "discon"
	bad.Topology = TopologySpec{Inline: &InlineTopology{
		Name:  "cut",
		Nodes: []InlineNode{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Links: []InlineLink{{A: "a", B: "b", CapacityGbps: 10}},
	}}
	c.req("POST", "/v1/tenants", bad, http.StatusUnprocessableEntity, nil)

	var listed []tenantSummary
	c.req("GET", "/v1/tenants", nil, http.StatusOK, &listed)
	if len(listed) != 2 || listed[0].Name != "alpha" || listed[1].Name != "ringo" {
		t.Fatalf("tenant list = %+v", listed)
	}

	// Manual time: advance moves the simulator exactly as asked.
	c.advance("alpha", 1800)
	if st := c.status("alpha"); st.SimNow != 1800 {
		t.Fatalf("sim_now = %g after advance 1800", st.SimNow)
	}
	c.req("POST", "/v1/tenants/alpha/advance", advanceRequest{SimSec: -5}, http.StatusUnprocessableEntity, nil)

	// Let demand drift well off the plan-time matrix, then plan
	// against the live demand via an async job.
	c.advance("alpha", 4*3600)
	var job jobView
	c.req("POST", "/v1/tenants/alpha/jobs", nil, http.StatusAccepted, &job)
	done := c.waitJob("alpha", job.ID)
	if done.State != JobDone || done.Artifact == "" {
		t.Fatalf("job = %+v", done)
	}
	var jobs []jobView
	c.req("GET", "/v1/tenants/alpha/jobs", nil, http.StatusOK, &jobs)
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("job list = %+v", jobs)
	}

	// The artifact shelf now holds the initial plan and (if the
	// demand-aware replan changed anything) the job result.
	var arts []artifactEntry
	c.req("GET", "/v1/tenants/alpha/artifacts", nil, http.StatusOK, &arts)
	if len(arts) < 1 || len(arts) > 2 {
		t.Fatalf("artifact shelf = %+v", arts)
	}
	initial := c.status("alpha").Promoted

	// Structural diff between the initial plan and the job's plan.
	var diff response.PlanDiff
	c.req("GET", fmt.Sprintf("/v1/tenants/alpha/diff?a=%s&b=%s", initial, done.Artifact),
		nil, http.StatusOK, &diff)
	if diff.FingerprintA == 0 || diff.PairsA == 0 {
		t.Fatalf("diff = %+v", diff)
	}
	if diff.Identical != (initial == done.Artifact) {
		t.Fatalf("diff.Identical=%v but digests %q vs %q", diff.Identical, initial, done.Artifact)
	}
	c.req("GET", "/v1/tenants/alpha/diff?a="+initial, nil, http.StatusBadRequest, nil)
	c.req("GET", "/v1/tenants/alpha/diff?a="+initial+"&b=nope", nil, http.StatusNotFound, nil)

	// Promote the job's plan through the lifecycle manager's stage
	// gates, complete the hot swap on simulated time, then roll back.
	var prom map[string]string
	c.req("POST", "/v1/tenants/alpha/promote", promoteRequest{Artifact: done.Artifact},
		http.StatusOK, &prom)
	changed := initial != done.Artifact
	if changed && prom["result"] != "swapping" {
		t.Fatalf("promote = %+v", prom)
	}
	c.advance("alpha", 1800) // drain grace + migration on simulated time
	st := c.status("alpha")
	if st.State != "idle" {
		t.Fatalf("state %q after swap window", st.State)
	}
	if changed && st.Promoted != done.Artifact {
		t.Fatalf("promoted = %q, want %q", st.Promoted, done.Artifact)
	}
	// Duplicate promote of the already-installed plan: recomputation
	// confirmed, nothing redeployed.
	c.req("POST", "/v1/tenants/alpha/promote", promoteRequest{Artifact: st.Promoted},
		http.StatusOK, &prom)
	if prom["result"] != "unchanged" {
		t.Fatalf("duplicate promote = %+v", prom)
	}
	if changed {
		c.req("POST", "/v1/tenants/alpha/rollback", nil, http.StatusOK, &prom)
		if prom["result"] != "swapping" || prom["promoted"] != initial {
			t.Fatalf("rollback = %+v", prom)
		}
		c.advance("alpha", 1800)
		if st := c.status("alpha"); st.Promoted != initial {
			t.Fatalf("promoted after rollback = %q, want %q", st.Promoted, initial)
		}
	} else {
		c.req("POST", "/v1/tenants/alpha/rollback", nil, http.StatusConflict, nil)
	}

	// Hot config patch: an invalid merge changes nothing; a valid one
	// applies and reads back.
	before := c.status("alpha").Policy
	c.req("PATCH", "/v1/tenants/alpha/config",
		PolicyPatch{Spread: f64(1.5)}, http.StatusUnprocessableEntity, nil)
	if got := c.status("alpha").Policy; got != before {
		t.Fatalf("rejected patch mutated policy: %+v -> %+v", before, got)
	}
	c.req("PATCH", "/v1/tenants/alpha/config",
		PolicyPatch{Spread: f64(0.9), DegradedAfter: intp(5)}, http.StatusOK, nil)
	after := c.status("alpha").Policy
	if after.Spread != 0.9 || after.DegradedAfter != 5 {
		t.Fatalf("patched policy = %+v", after)
	}
	// Repace the tenant loop, then pause it again.
	c.req("PATCH", "/v1/tenants/alpha/config", PolicyPatch{SimRate: f64(50)}, http.StatusOK, nil)
	if got := c.status("alpha").SimRate; got != 50 {
		t.Fatalf("sim_rate = %g after patch", got)
	}
	c.req("PATCH", "/v1/tenants/alpha/config", PolicyPatch{SimRate: f64(0)}, http.StatusOK, nil)

	// Raw artifact fetch round-trips through the hardened reader, and
	// uploads are gated by it: a cross-topology artifact and garbage
	// are both refused, a valid re-upload dedupes to the same digest.
	resp, err := http.Get(c.ts.URL + "/v1/tenants/alpha/artifacts/" + st.Promoted)
	if err != nil {
		t.Fatal(err)
	}
	rawArt, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(rawArt) < 40 {
		t.Fatalf("artifact fetch: status %d, %d bytes", resp.StatusCode, len(rawArt))
	}
	up := func(tenant string, body []byte) int {
		resp, err := http.Post(c.ts.URL+"/v1/tenants/"+tenant+"/artifacts",
			"application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := up("ringo", rawArt); code != http.StatusUnprocessableEntity {
		t.Fatalf("cross-topology upload: status %d", code)
	}
	if code := up("alpha", []byte("garbage")); code != http.StatusUnprocessableEntity {
		t.Fatalf("garbage upload: status %d", code)
	}
	if code := up("alpha", rawArt); code != http.StatusCreated {
		t.Fatalf("valid upload: status %d", code)
	}

	// Event stream: subscribe (NDJSON, one event), then drive time
	// until the tenant's trace delivers.
	streamed := make(chan string, 1)
	go func() {
		resp, err := http.Get(c.ts.URL + "/v1/tenants/alpha/events?format=ndjson&max=1")
		if err != nil {
			streamed <- "err: " + err.Error()
			return
		}
		defer resp.Body.Close()
		line, _ := bufio.NewReader(resp.Body).ReadString('\n')
		streamed <- line
	}()
	var line string
	deadline := time.After(20 * time.Second)
waitEvent:
	for {
		select {
		case line = <-streamed:
			break waitEvent
		case <-deadline:
			t.Fatal("no event arrived on the stream")
		default:
			c.advance("alpha", 900)
			time.Sleep(20 * time.Millisecond)
		}
	}
	var ev struct {
		Tenant string  `json:"tenant"`
		TS     float64 `json:"ts"`
		Span   string  `json:"span"`
	}
	if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Tenant != "alpha" || ev.Span == "" {
		t.Fatalf("streamed event %q (err %v)", line, err)
	}

	// Delete a tenant; it is gone from every route.
	c.req("DELETE", "/v1/tenants/ringo", nil, http.StatusNoContent, nil)
	c.req("GET", "/v1/tenants/ringo", nil, http.StatusNotFound, nil)
	c.req("DELETE", "/v1/tenants/ringo", nil, http.StatusNotFound, nil)

	// Drain: mutations refused, reads still served, tenants stopped.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	c.req("POST", "/v1/tenants", genSpec("late", 9), http.StatusServiceUnavailable, nil)
	c.req("POST", "/v1/tenants/alpha/advance", advanceRequest{SimSec: 900}, http.StatusServiceUnavailable, nil)
	c.req("GET", "/v1/tenants", nil, http.StatusOK, nil)
}

// TestFaultTenantDegradedCycle registers one fault-injected tenant and
// one healthy one, drives simulated time and requires the faulty
// tenant to enter AND exit the Degraded all-on fallback while the
// healthy tenant never leaves steady state.
func TestFaultTenantDegradedCycle(t *testing.T) {
	_, c := newTestDaemon(t, Opts{Workers: 2})

	faulty := genSpec("faulty", 3)
	faulty.Policy = &PolicySpec{
		Policy:   ilc.Policy{Deviation: 0.05, Spread: 0.1, MinInterval: 900, DegradedAfter: 2},
		CheckSec: 900,
	}
	faulty.Faults = &FaultSpec{FailFirst: 4}
	c.req("POST", "/v1/tenants", faulty, http.StatusCreated, nil)

	healthy := genSpec("healthy", 3)
	healthy.Policy = &PolicySpec{
		Policy: ilc.Policy{Deviation: 0.05, Spread: 0.1, MinInterval: 900}, CheckSec: 900,
	}
	c.req("POST", "/v1/tenants", healthy, http.StatusCreated, nil)

	sawDegraded := false
	var st TenantStatus
	for round := 0; round < 120; round++ {
		c.advance("faulty", 900)
		c.advance("healthy", 900)
		st = c.status("faulty")
		if st.State == "degraded" {
			sawDegraded = true
		}
		if sawDegraded && st.Metrics.DegradedExited > 0 && st.State != "degraded" {
			break
		}
	}
	if !sawDegraded {
		t.Fatalf("faulty tenant never entered Degraded: %+v", st.Metrics)
	}
	if st.Metrics.DegradedExited == 0 || st.State == "degraded" {
		t.Fatalf("faulty tenant never recovered: state %q, metrics %+v", st.State, st.Metrics)
	}
	if st.Injected == 0 {
		t.Fatal("fault injector reported no injected faults")
	}

	hs := c.status("healthy")
	if hs.Metrics.DegradedEntered != 0 || hs.State == "degraded" {
		t.Fatalf("healthy tenant degraded alongside the faulty one: state %q, metrics %+v",
			hs.State, hs.Metrics)
	}
	if hs.Metrics.Checks == 0 {
		t.Fatal("healthy tenant's monitor never ran")
	}
}

// TestStreamSSEFormat checks the server-sent-events framing.
func TestStreamSSEFormat(t *testing.T) {
	_, c := newTestDaemon(t, Opts{})
	c.req("POST", "/v1/tenants", genSpec("ssetee", 5), http.StatusCreated, nil)

	got := make(chan string, 1)
	go func() {
		resp, err := http.Get(c.ts.URL + "/v1/events?tenant=ssetee&max=1")
		if err != nil {
			got <- "err: " + err.Error()
			return
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			got <- "bad content-type: " + ct
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		got <- string(raw)
	}()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case body := <-got:
			if !strings.HasPrefix(body, "data: {\"tenant\":\"ssetee\",") || !strings.HasSuffix(body, "\n\n") {
				t.Fatalf("SSE frame = %q", body)
			}
			return
		case <-deadline:
			t.Fatal("no SSE event arrived")
		default:
			c.advance("ssetee", 900)
			time.Sleep(20 * time.Millisecond)
		}
	}
}

func f64(v float64) *float64 { return &v }
func intp(v int) *int        { return &v }
