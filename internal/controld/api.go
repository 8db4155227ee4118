package controld

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"response"
	ilc "response/internal/lifecycle"
	"response/internal/metrics"
	"response/internal/tracestore"
)

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // response writer
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds every request body the daemon will read.
const maxBodyBytes = 8 << 20

// readBody reads a bounded request body whole and decodes it strictly
// into v, answering 400 itself when either fails. The bytes come back
// for the two routes that decode them again, onto defaults.
func readBody(w http.ResponseWriter, r *http.Request, v any) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return body, err == nil
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	_, ok := readBody(w, r, v)
	return ok
}

// planBytes serializes a plan to its versioned artifact bytes.
func planBytes(p *response.Plan) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// routes wires the management API. Mutating routes run through
// s.mutating, which refuses them once a drain has begun.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenantList)
	s.mux.HandleFunc("POST /v1/tenants", s.mutating(s.handleTenantCreate))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}", s.withTenant(s.handleTenantStatus))
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.mutating(s.withTenant(s.handleTenantDelete)))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/advance", s.mutating(s.withTenant(s.handleAdvance)))
	s.mux.HandleFunc("PATCH /v1/tenants/{tenant}/config", s.mutating(s.withTenant(s.handleConfigPatch)))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/jobs", s.withTenant(s.handleJobList))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/jobs", s.mutating(s.withTenant(s.handleJobSubmit)))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/jobs/{job}", s.withTenant(s.handleJobGet))
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}/jobs/{job}", s.withTenant(s.handleJobCancel))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/artifacts", s.withTenant(s.handleArtifactList))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/artifacts", s.mutating(s.withTenant(s.handleArtifactUpload)))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/artifacts/{digest}", s.withTenant(s.handleArtifactGet))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/diff", s.withTenant(s.handleDiff))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/promote", s.mutating(s.withTenant(s.handlePromote)))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/rollback", s.mutating(s.withTenant(s.handleRollback)))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/events", s.withTenant(s.handleTenantEvents))
	s.mux.HandleFunc("GET /v1/events", s.handleAllEvents)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/trace/windows", s.withTenant(s.handleTraceWindows))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/trace/summary", s.withTenant(s.handleTraceSummary))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/trace/critical-path", s.withTenant(s.handleTraceCriticalPath))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/trace/events", s.withTenant(s.handleTraceEvents))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// mutating refuses the request once a drain has begun.
func (s *Server) mutating(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeErr(w, http.StatusServiceUnavailable, "daemon is draining")
			return
		}
		h(w, r)
	}
}

// withTenant resolves the {tenant} path segment.
func (s *Server) withTenant(h func(http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		t, ok := s.reg.get(name)
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown tenant %q", name)
			return
		}
		h(w, r, t)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"tenants":  len(s.reg.names()),
		"draining": s.draining.Load(),
	})
}

// tenantSummary is one row of the tenant listing.
type tenantSummary struct {
	Name     string `json:"name"`
	Topology string `json:"topology"`
	State    string `json:"state"`
}

func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) {
	ts := s.reg.all()
	out := make([]tenantSummary, 0, len(ts))
	for _, t := range ts {
		out = append(out, tenantSummary{
			Name:     t.name,
			Topology: t.topoGraph.Name,
			State:    t.rep.Mgr.State().String(),
		})
	}
	// Deterministic order for clients and tests.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Name > out[j].Name; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	var spec TenantSpec
	body, ok := readBody(w, r, &spec)
	if !ok {
		return
	}
	if err := spec.resolve(body); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "register %q: %v", spec.Name, err)
		return
	}
	t, err := newTenant(spec, s.hub, s.opts.MaxArtifacts)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "register %q: %v", spec.Name, err)
		return
	}
	if err := s.reg.add(t); err != nil {
		t.stop()
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	st, _ := s.statusOf(t)
	writeJSON(w, http.StatusCreated, st)
}

// TenantStatus is the full status document of one tenant.
type TenantStatus struct {
	Name        string      `json:"name"`
	Topology    string      `json:"topology"`
	Fingerprint string      `json:"topology_fingerprint"`
	Nodes       int         `json:"nodes"`
	Links       int         `json:"links"`
	Flows       int         `json:"flows"`
	SimNow      float64     `json:"sim_now"`
	SimRate     float64     `json:"sim_rate"`
	State       string      `json:"state"`
	Plan        string      `json:"plan_fingerprint"`
	Promoted    string      `json:"promoted_artifact,omitempty"`
	LastGood    string      `json:"last_good_artifact,omitempty"`
	Injected    int         `json:"injected_faults"`
	Policy      ilc.Policy  `json:"policy"`
	Metrics     ilc.Metrics `json:"metrics"`
}

// statusOf gathers a tenant's status on its loop goroutine.
func (s *Server) statusOf(t *tenant) (TenantStatus, error) {
	st := TenantStatus{
		Name:        t.name,
		Topology:    t.topoGraph.Name,
		Fingerprint: fmt.Sprintf("%016x", t.topoGraph.Fingerprint()),
		Nodes:       t.topoGraph.NumNodes(),
		Links:       t.topoGraph.NumLinks(),
		SimRate:     t.rate(),
		State:       t.rep.Mgr.State().String(),
		Metrics:     t.rep.Mgr.Metrics(),
	}
	st.Promoted, st.LastGood = t.store.current()
	err := t.do(func() {
		st.Flows = t.rep.Flows()
		st.SimNow = t.rep.Sim.Now()
		st.Plan = fmt.Sprintf("%016x", t.rep.Mgr.CurrentPlan().Fingerprint())
		st.Injected = t.rep.InjectedFaults()
		st.Policy = t.rep.Mgr.Policy()
	})
	return st, err
}

func (s *Server) handleTenantStatus(w http.ResponseWriter, r *http.Request, t *tenant) {
	st, err := s.statusOf(t)
	if err != nil {
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request, t *tenant) {
	if _, ok := s.reg.remove(t.name); !ok {
		writeErr(w, http.StatusNotFound, "unknown tenant %q", t.name)
		return
	}
	s.sched.cancelTenant(t.name)
	t.stop()
	s.sched.forgetTenant(t.name)
	w.WriteHeader(http.StatusNoContent)
}

type advanceRequest struct {
	SimSec float64 `json:"sim_sec"`
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req advanceRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.SimSec <= 0 || req.SimSec > 30*86400 {
		writeErr(w, http.StatusUnprocessableEntity, "sim_sec must be in (0, 30 days], got %g", req.SimSec)
		return
	}
	var now float64
	err := t.do(func() {
		t.rep.Advance(req.SimSec)
		now = t.rep.Sim.Now()
	})
	if err != nil {
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"sim_now": now})
}

// PolicyPatch is the typed client request for PATCH …/config: one
// optional field per lifecycle.Policy key plus the loop pacing. The
// server decodes the body straight onto the tenant's current policy.
type PolicyPatch struct {
	Deviation         *float64 `json:"deviation,omitempty"`
	Spread            *float64 `json:"spread,omitempty"`
	Hysteresis        *float64 `json:"hysteresis,omitempty"`
	MinIntervalSec    *float64 `json:"min_interval_sec,omitempty"`
	ReplanDeadlineSec *float64 `json:"replan_deadline_sec,omitempty"`
	RetryBaseSec      *float64 `json:"retry_base_sec,omitempty"`
	RetryMaxSec       *float64 `json:"retry_max_sec,omitempty"`
	DegradedAfter     *int     `json:"degraded_after,omitempty"`
	// NoWarmStart disables warm-starting deviation-triggered replans
	// from the promoted plan.
	NoWarmStart *bool `json:"no_warm_start,omitempty"`
	// SimRate repaces the tenant loop (0 pauses automatic time).
	SimRate *float64 `json:"sim_rate,omitempty"`
}

func (s *Server) handleConfigPatch(w http.ResponseWriter, r *http.Request, t *tenant) {
	var patch struct {
		ilc.Policy
		SimRate *float64 `json:"sim_rate"`
	}
	body, ok := readBody(w, r, &patch) // refuses malformed bodies and unknown keys
	if !ok {
		return
	}
	if patch.SimRate != nil {
		if err := checkSimRate(*patch.SimRate); err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
	}
	var applyErr error
	var applied ilc.Policy
	err := t.do(func() {
		// Overlay the body's policy keys on the current policy — absent
		// keys keep their value — on the loop goroutine, so concurrent
		// patches merge instead of overwriting each other.
		applied = t.rep.Mgr.Policy()
		json.Unmarshal(body, &applied) //nolint:errcheck // decoded once already
		// SetPolicy validates the merged policy and applies it whole, so
		// a rejected patch leaves every threshold untouched.
		applyErr = t.rep.Mgr.SetPolicy(applied)
	})
	if err != nil {
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	if applyErr != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", applyErr)
		return
	}
	if patch.SimRate != nil {
		t.setRate(*patch.SimRate)
	}
	writeJSON(w, http.StatusOK, map[string]any{"policy": applied, "sim_rate": t.rate()})
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request, t *tenant) {
	writeJSON(w, http.StatusOK, s.sched.list(t.name))
}

// jobSubmitBody is the optional POST …/jobs body.
type jobSubmitBody struct {
	// WarmFrom names a shelved artifact (by digest) to warm-start the
	// plan from. The digest is resolved when the job runs; an unknown
	// digest or a topology mismatch fails the job.
	WarmFrom string `json:"warm_from,omitempty"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request, t *tenant) {
	var body jobSubmitBody
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil && err != io.EOF {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	j, err := s.sched.submit(t.name, body.WarmFrom)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.view())
}

// jobOf resolves {job}, scoped to the tenant in the path.
func (s *Server) jobOf(w http.ResponseWriter, r *http.Request, t *tenant) (*Job, bool) {
	id := r.PathValue("job")
	j, ok := s.sched.get(id)
	if !ok || j.Tenant != t.name {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request, t *tenant) {
	if j, ok := s.jobOf(w, r, t); ok {
		writeJSON(w, http.StatusOK, j.view())
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request, t *tenant) {
	j, ok := s.jobOf(w, r, t)
	if !ok {
		return
	}
	canceled, err := s.sched.cancelJob(j.ID)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"canceled": canceled, "job": j.view()})
}

func (s *Server) handleArtifactList(w http.ResponseWriter, r *http.Request, t *tenant) {
	writeJSON(w, http.StatusOK, t.store.list())
}

func (s *Server) handleArtifactUpload(w http.ResponseWriter, r *http.Request, t *tenant) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	// ReadPlanFrom is the gate: topology match, fingerprints, CRC,
	// canonical form. Nothing unvalidated ever lands on the shelf.
	plan, err := response.ReadPlanFrom(bytes.NewReader(raw), t.topoGraph)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	d := t.store.put(raw, plan.Fingerprint(), plan.Variant(), len(plan.Pairs()), "upload")
	writeJSON(w, http.StatusCreated, map[string]string{"artifact": d})
}

func (s *Server) handleArtifactGet(w http.ResponseWriter, r *http.Request, t *tenant) {
	d := r.PathValue("digest")
	raw, ok := t.store.get(d)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown artifact %q", d)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.Write(raw) //nolint:errcheck // response writer
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request, t *tenant) {
	da, db := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if da == "" || db == "" {
		writeErr(w, http.StatusBadRequest, "diff needs ?a=<digest>&b=<digest>")
		return
	}
	pa, err := t.loadPlan(da)
	if err != nil {
		writeErr(w, http.StatusNotFound, "artifact a: %v", err)
		return
	}
	pb, err := t.loadPlan(db)
	if err != nil {
		writeErr(w, http.StatusNotFound, "artifact b: %v", err)
		return
	}
	diff, err := response.DiffPlans(pa, pb)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, diff)
}

// loadPlan parses a shelved artifact back into a plan.
func (t *tenant) loadPlan(digest string) (*response.Plan, error) {
	raw, ok := t.store.get(digest)
	if !ok {
		return nil, fmt.Errorf("unknown artifact %q", digest)
	}
	return response.ReadPlanFrom(bytes.NewReader(raw), t.topoGraph)
}

type promoteRequest struct {
	Artifact string `json:"artifact"`
}

// promoteDigest stages one shelved artifact into the tenant's
// lifecycle manager; shared by promote and rollback.
func (s *Server) promoteDigest(w http.ResponseWriter, t *tenant, digest string) {
	release, ok := t.store.stage(digest)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown artifact %q", digest)
		return
	}
	defer release()
	plan, err := t.loadPlan(digest)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	var stageErr error
	var result string
	err = t.do(func() {
		cur := t.rep.Mgr.CurrentPlan().Fingerprint()
		if stageErr = t.rep.Mgr.StageAndSwap(plan); stageErr != nil {
			return
		}
		if plan.Fingerprint() == cur {
			result = "unchanged" // duplicate promote: recomputation confirmed
		} else {
			result = "swapping"
		}
	})
	if err != nil {
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	if stageErr != nil {
		writeErr(w, http.StatusConflict, "%v", stageErr)
		return
	}
	if result == "swapping" {
		t.store.setPromoted(digest)
	}
	promoted, lastGood := t.store.current()
	writeJSON(w, http.StatusOK, map[string]string{
		"result": result, "promoted": promoted, "last_good": lastGood,
	})
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req promoteRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Artifact == "" {
		writeErr(w, http.StatusBadRequest, "promote needs an artifact digest")
		return
	}
	s.promoteDigest(w, t, req.Artifact)
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request, t *tenant) {
	_, lastGood := t.store.current()
	if lastGood == "" {
		writeErr(w, http.StatusConflict, "no last-known-good artifact to roll back to")
		return
	}
	s.promoteDigest(w, t, lastGood)
}

// --- Trace-store incident queries (progressive disclosure: windows →
// summary → critical-path → events; DESIGN.md §11) ---

func (s *Server) handleTraceWindows(w http.ResponseWriter, r *http.Request, t *tenant) {
	q, err := tracestore.ParseWindowQuery(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	q.Tenant = t.name
	wins := s.store.Windows(q)
	if wins == nil {
		wins = []tracestore.WindowSummary{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"window_sec": s.store.WindowSec(),
		"windows":    wins,
	})
}

func (s *Server) handleTraceSummary(w http.ResponseWriter, r *http.Request, t *tenant) {
	q, err := tracestore.ParseDrillQuery(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	det, ok := s.store.Summary(t.name, q.Start)
	if !ok {
		writeErr(w, http.StatusNotFound, "no retained events in the window at %g", q.Start)
		return
	}
	writeJSON(w, http.StatusOK, det)
}

func (s *Server) handleTraceCriticalPath(w http.ResponseWriter, r *http.Request, t *tenant) {
	q, err := tracestore.ParseDrillQuery(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	cp := s.store.CriticalPathQuery(t.name, q.Start, q.K)
	if cp.Links == nil {
		cp.Links = []tracestore.LinkScore{}
	}
	writeJSON(w, http.StatusOK, cp)
}

func (s *Server) handleTraceEvents(w http.ResponseWriter, r *http.Request, t *tenant) {
	q, err := tracestore.ParseEventQuery(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	q.Tenant = t.name
	evs := s.store.Events(q)
	if evs == nil {
		evs = []tracestore.Event{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"events": evs})
}

// handleMetrics serves the Prometheus text page: every tenant's
// runtime counter families (tenant-labeled), then the trace store's
// own bookkeeping and what its feed lost on the way in.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ts := s.reg.all()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	sets := make([]metrics.Labeled, 0, len(ts))
	for _, t := range ts {
		sets = append(sets, metrics.Labeled{Tenant: t.name, Runtime: t.metrics})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := metrics.WritePrometheus(w, sets); err != nil {
		return
	}
	if err := s.store.WritePrometheus(w); err != nil {
		return
	}
	const name = "response_controld_events_dropped_total"
	fmt.Fprintf(w, "# HELP %s Event lines lost to a full subscriber buffer (tracestore: incident queries over that span are incomplete).\n# TYPE %s counter\n%s{consumer=\"tracestore\"} %d\n%s{consumer=\"stream\"} %d\n",
		name, name, name, s.feedDropped.Value(), name, s.streamDropped.Value()) //nolint:errcheck // response writer
}

func (s *Server) handleTenantEvents(w http.ResponseWriter, r *http.Request, t *tenant) {
	s.streamEvents(w, r, t.name)
}

func (s *Server) handleAllEvents(w http.ResponseWriter, r *http.Request) {
	s.streamEvents(w, r, r.URL.Query().Get("tenant"))
}

// streamEvents serves the live event stream as SSE (default) or NDJSON
// (?format=ndjson), optionally closing after ?max=N events.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, tenant string) {
	maxEvents := 0
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "max must be a positive integer")
			return
		}
		maxEvents = n
	}
	ndjson := r.URL.Query().Get("format") == "ndjson" ||
		r.Header.Get("Accept") == "application/x-ndjson"
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sub := s.hub.subscribe(tenant, streamBuffer, &s.streamDropped)
	defer s.hub.unsubscribe(sub)
	sent := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case line, open := <-sub.ch:
			if !open {
				return // daemon draining
			}
			var err error
			if ndjson {
				_, err = fmt.Fprintf(w, "%s\n", line)
			} else {
				_, err = fmt.Fprintf(w, "data: %s\n\n", line)
			}
			if err != nil {
				return
			}
			flusher.Flush()
			sent++
			if maxEvents > 0 && sent >= maxEvents {
				return
			}
		}
	}
}
