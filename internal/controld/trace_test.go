package controld

// The observability surface over real HTTP: the trace store ingests
// the hub stream asynchronously, the …/trace/* progressive-disclosure
// queries serve it per tenant, and /metrics exposes the per-tenant
// runtime counter families plus the store's own bookkeeping.

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"response/internal/tracestore"
)

func (c *testClient) getText(path string, want int) string {
	c.t.Helper()
	resp, err := c.ts.Client().Get(c.ts.URL + path)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		c.t.Fatalf("GET %s: status %d, want %d; body: %s", path, resp.StatusCode, want, raw)
	}
	return string(raw)
}

func TestTraceQueriesAndMetrics(t *testing.T) {
	s, c := newTestDaemon(t, Opts{Workers: 1})
	c.req("POST", "/v1/tenants", genSpec("alpha", 1), http.StatusCreated, nil)
	c.req("POST", "/v1/tenants", genSpec("beta", 2), http.StatusCreated, nil)
	c.advance("alpha", 3600)
	c.advance("beta", 1800)

	// Ingestion rides an async hub subscription; wait for the store to
	// catch up with both tenants' windows.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.store.Stats()
		if st.Ingested > 0 && st.Tenants >= 2 &&
			len(s.store.Windows(tracestore.WindowQuery{Tenant: "alpha"})) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace store never caught up: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Tier 1: windows, tenant-scoped by the path.
	var wresp struct {
		WindowSec float64                    `json:"window_sec"`
		Windows   []tracestore.WindowSummary `json:"windows"`
	}
	c.req("GET", "/v1/tenants/alpha/trace/windows", nil, http.StatusOK, &wresp)
	if wresp.WindowSec != 900 || len(wresp.Windows) == 0 {
		t.Fatalf("windows response %+v", wresp)
	}
	for _, w := range wresp.Windows {
		if w.Tenant != "alpha" {
			t.Fatalf("cross-tenant window leaked: %+v", w)
		}
	}
	start := wresp.Windows[0].Start

	// Tier 2/3/4 drill-downs answer on the same window.
	var det tracestore.WindowDetail
	c.req("GET", "/v1/tenants/alpha/trace/summary?start="+fmtFloat(start), nil, http.StatusOK, &det)
	if det.Window.Events == 0 {
		t.Fatalf("summary empty: %+v", det)
	}
	var cp tracestore.CriticalPath
	c.req("GET", "/v1/tenants/alpha/trace/critical-path?start="+fmtFloat(start)+"&k=5", nil, http.StatusOK, &cp)
	if cp.Events == 0 || len(cp.Links) > 5 {
		t.Fatalf("critical path %+v", cp)
	}
	var eresp struct {
		Events []tracestore.Event `json:"events"`
	}
	c.req("GET", "/v1/tenants/alpha/trace/events?span=te&limit=5", nil, http.StatusOK, &eresp)
	if len(eresp.Events) == 0 || len(eresp.Events) > 5 {
		t.Fatalf("events response %+v", eresp)
	}
	for _, e := range eresp.Events {
		if e.Tenant != "alpha" || e.Span != "te" {
			t.Fatalf("event filter leaked: %+v", e)
		}
	}

	// Malformed queries are 400, missing windows 404, unknown tenant 404.
	c.req("GET", "/v1/tenants/alpha/trace/windows?severity=maximal", nil, http.StatusBadRequest, nil)
	c.req("GET", "/v1/tenants/alpha/trace/summary", nil, http.StatusBadRequest, nil)
	c.req("GET", "/v1/tenants/alpha/trace/summary?start=9e9", nil, http.StatusNotFound, nil)
	c.req("GET", "/v1/tenants/nobody/trace/windows", nil, http.StatusNotFound, nil)

	// /metrics: tenant-labeled runtime families plus store bookkeeping,
	// consistent with what the store itself reports.
	page := c.getText("/metrics", http.StatusOK)
	for _, want := range []string{
		`response_lifecycle_checks_total{tenant="alpha"} `,
		`response_lifecycle_checks_total{tenant="beta"} `,
		`response_te_probe_rounds_total{tenant="alpha"} `,
		"# TYPE response_lifecycle_sim_seconds gauge",
		"response_tracestore_ingested_total ",
		"response_tracestore_tenants 2",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(page, `response_lifecycle_checks_total{tenant="alpha"} 0`) {
		t.Error("alpha advanced 3600 s but its lifecycle check counter is 0")
	}
}

func fmtFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// TestEventDropsOnMetrics overfills both kinds of hub subscriber and
// requires /metrics to say so: before the counter was surfaced, a trace
// store whose feed overflowed answered critical-path queries over a
// silently thinned event set.
func TestEventDropsOnMetrics(t *testing.T) {
	s, c := newTestDaemon(t, Opts{Workers: 1})
	if page := c.getText("/metrics", http.StatusOK); !strings.Contains(page,
		`response_controld_events_dropped_total{consumer="tracestore"} 0`) {
		t.Fatalf("/metrics before any event lacks a zero tracestore drop counter:\n%s", page)
	}

	// A stream that never reads keeps its first buffer-full and loses
	// the rest.
	stalled := s.hub.subscribe("", 2, &s.streamDropped)
	defer s.hub.unsubscribe(stalled)
	line := []byte(`{"tenant":"flood","t":1,"span":"te","op":"probe","link":-1}`)
	for i := 0; i < 5; i++ {
		s.hub.publish("flood", line)
	}
	if got := s.streamDropped.Value(); got != 3 {
		t.Errorf("stalled stream dropped %d of 5 lines through a 2-deep buffer, want 3", got)
	}

	// The store's feed is 4096 deep and drains concurrently, but
	// publishing is far cheaper than ingesting: flood until it spills.
	for i := 0; s.feedDropped.Value() == 0; i++ {
		if i == 5_000_000 {
			t.Fatal("5M lines published and the store feed never overflowed")
		}
		s.hub.publish("flood", line)
	}
	page := c.getText("/metrics", http.StatusOK)
	for _, want := range []string{
		"# TYPE response_controld_events_dropped_total counter",
		`response_controld_events_dropped_total{consumer="stream"} `,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(page, `response_controld_events_dropped_total{consumer="tracestore"} 0`) {
		t.Errorf("the store feed dropped %d lines but /metrics still reports 0", s.feedDropped.Value())
	}
}
