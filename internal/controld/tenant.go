package controld

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"sync"
	"time"

	"response"
	"response/internal/core"
	"response/internal/faultinject"
	ilc "response/internal/lifecycle"
	"response/internal/metrics"
	"response/internal/scenario"
	"response/internal/sim"
	"response/internal/topo"
	"response/internal/topogen"
	"response/internal/trace"
	"response/internal/traffic"
)

// TenantSpec is the registration request body: a name, a topology
// source and the optional workload/lifecycle/fault-injection knobs of
// the tenant's runtime. Everything omitted takes the scenario
// catalog's diurnal defaults.
type TenantSpec struct {
	Name     string        `json:"name"`
	Topology TopologySpec  `json:"topology"`
	Workload *WorkloadSpec `json:"workload,omitempty"`
	Policy   *PolicySpec   `json:"policy,omitempty"`
	Faults   *FaultSpec    `json:"faults,omitempty"`
}

// TopologySpec names the tenant's network: exactly one of a built-in
// topology, a topogen family spec or an inline node/link list.
type TopologySpec struct {
	// Builtin names a packaged topology ("geant", "abovenet",
	// "genuity").
	Builtin string `json:"builtin,omitempty"`
	// Gen generates a synthetic instance (deterministic in its seed).
	Gen *GenSpec `json:"gen,omitempty"`
	// Inline builds the topology from an explicit node/link list.
	Inline *InlineTopology `json:"inline,omitempty"`
}

// GenSpec mirrors topogen.Config for the wire.
type GenSpec struct {
	Family       string  `json:"family"`
	Size         int     `json:"size,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	PeakUtil     float64 `json:"peak_util,omitempty"`
	MaxEndpoints int     `json:"max_endpoints,omitempty"`
}

// InlineTopology is a JSON node/link list. Node kinds default to
// router; link capacity is in Gbps and latency in milliseconds.
type InlineTopology struct {
	Name  string       `json:"name"`
	Nodes []InlineNode `json:"nodes"`
	Links []InlineLink `json:"links"`
}

// InlineNode declares one node by name.
type InlineNode struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind,omitempty"` // router|core|aggr|edge|host
	KmEast  float64 `json:"km_east,omitempty"`
	KmNorth float64 `json:"km_north,omitempty"`
}

// InlineLink declares one undirected link between named nodes.
type InlineLink struct {
	A            string  `json:"a"`
	B            string  `json:"b"`
	CapacityGbps float64 `json:"capacity_gbps"`
	LatencyMs    float64 `json:"latency_ms,omitempty"`
}

// WorkloadSpec sizes the tenant's managed-flow replay.
type WorkloadSpec struct {
	Flows    int     `json:"flows,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	PeakUtil float64 `json:"peak_util,omitempty"`
	StepSec  float64 `json:"step_sec,omitempty"`
	// SimRate paces the tenant loop at this many simulated seconds per
	// wall second (0 = manual: time moves only via the advance
	// endpoint, the deterministic mode tests and benchmarks use).
	SimRate float64 `json:"sim_rate,omitempty"`
}

// PolicySpec is a tenant spec's "policy" object: the lifecycle policy
// under the keys status reports and PATCH …/config takes, plus the two
// values fixed at creation (lifecycle.Opts.CheckEvery, ReplanLatency).
// An omitted key takes its default (scenario.Config.ReplanOpts); a key
// the request carries is a value, validated exactly as a patch is.
type PolicySpec struct {
	ilc.Policy
	CheckSec   float64 `json:"check_sec,omitempty"`
	LatencySec float64 `json:"latency_sec,omitempty"`
}

// FaultSpec enables control-plane fault injection on the tenant's
// replan path.
type FaultSpec = faultinject.Config

// checkSimRate bounds a tenant loop's pacing, on create and on patch.
func checkSimRate(rate float64) error {
	if !(rate >= 0 && rate <= 1e6) {
		return fmt.Errorf("sim_rate must be in [0, 1e6], got %g", rate)
	}
	return nil
}

// validate refuses a workload the replay would mis-size or never
// finish stepping through (zero keeps meaning "default").
func (w *WorkloadSpec) validate() error {
	switch {
	case w.Flows < 0:
		return fmt.Errorf("workload: flows must be >= 0, got %d", w.Flows)
	case !(w.PeakUtil >= 0):
		return fmt.Errorf("workload: peak_util must be >= 0, got %g", w.PeakUtil)
	case !(w.StepSec >= 0):
		return fmt.Errorf("workload: step_sec must be >= 0, got %g", w.StepSec)
	}
	return checkSimRate(w.SimRate)
}

// scenarioConfig maps the spec onto the tenant's replay configuration.
// Everything omitted takes the scenario catalog's diurnal defaults, but
// a tenant always runs a lifecycle manager.
func (spec *TenantSpec) scenarioConfig() scenario.Config {
	cfg := scenario.Config{Flows: 200}
	if w := spec.Workload; w != nil {
		if w.Flows > 0 {
			cfg.Flows = w.Flows
		}
		cfg.Seed = w.Seed
		cfg.PeakUtil = w.PeakUtil
		cfg.StepSec = w.StepSec
	}
	if p := spec.Policy; p != nil {
		cfg.Replan = p.Policy
		cfg.ReplanCheck = p.CheckSec
		cfg.ReplanLatency = p.LatencySec
	}
	if cfg.Replan.Deviation == 0 {
		cfg.Replan.Deviation = 0.2
	}
	if spec.Faults != nil {
		cfg.Faults = *spec.Faults
	}
	return cfg
}

// resolve checks a decoded create request before anything is built for
// it, and replaces spec.Policy with the full policy the tenant will
// run: the defaults the spec implies, overlaid with the keys the body
// carries. The overlay is what makes create agree with PATCH …/config:
// a present key is a value to validate (an explicit "degraded_after": 0
// is refused, not read as "default"), an absent one keeps its default.
func (spec *TenantSpec) resolve(body []byte) error {
	if w := spec.Workload; w != nil {
		if err := w.validate(); err != nil {
			return err
		}
	}
	opts := spec.scenarioConfig().ReplanOpts()
	pol := &PolicySpec{Policy: opts.Policy, CheckSec: opts.CheckEvery, LatencySec: opts.ReplanLatency}
	// The body already decoded strictly into spec; this pass only
	// re-reads its "policy" object onto the defaults.
	json.Unmarshal(body, &struct { //nolint:errcheck // decoded once already
		Policy *PolicySpec `json:"policy"`
	}{pol})
	spec.Policy = pol
	opts.Policy, opts.CheckEvery, opts.ReplanLatency = pol.Policy, pol.CheckSec, pol.LatencySec
	return opts.Validate()
}

var tenantNameRe = regexp.MustCompile(`^[a-z0-9]([a-z0-9-]{0,62}[a-z0-9])?$`)

// errTenantStopped reports a command sent to a stopped tenant loop.
var errTenantStopped = errors.New("controld: tenant stopped")

// tenant is one registered control loop: a scenario replay owned by a
// single loop goroutine, plus the tenant's planner and artifact shelf.
// All replay access goes through do(), which runs the closure on the
// loop goroutine — the registry itself never touches the simulator.
type tenant struct {
	name      string
	rep       *scenario.Replay
	planner   *response.Planner
	topoGraph *topo.Topology
	store     *artifactStore
	events    *trace.EventWriter
	metrics   *metrics.Runtime

	cmds chan func()
	quit chan struct{}
	dead chan struct{}

	rateMu  sync.Mutex
	simRate float64
}

// buildTopology resolves a TopologySpec to a validated, connected
// topology plus its endpoint universe.
func buildTopology(spec TopologySpec) (*topo.Topology, []topo.NodeID, error) {
	n := 0
	if spec.Builtin != "" {
		n++
	}
	if spec.Gen != nil {
		n++
	}
	if spec.Inline != nil {
		n++
	}
	if n != 1 {
		return nil, nil, fmt.Errorf("topology must set exactly one of builtin, gen, inline")
	}
	switch {
	case spec.Builtin != "":
		g, err := topo.Builtin(spec.Builtin)
		if err != nil {
			return nil, nil, err
		}
		return g, core.DefaultEndpoints(g), nil
	case spec.Gen != nil:
		inst, err := topogen.Generate(topogen.Config{
			Family:       topogen.Family(spec.Gen.Family),
			Size:         spec.Gen.Size,
			Seed:         spec.Gen.Seed,
			PeakUtil:     spec.Gen.PeakUtil,
			MaxEndpoints: spec.Gen.MaxEndpoints,
		})
		if err != nil {
			return nil, nil, err
		}
		return inst.Topo, inst.Endpoints, nil
	default:
		return buildInline(spec.Inline)
	}
}

// buildInline constructs a topology from an explicit node/link list.
func buildInline(in *InlineTopology) (*topo.Topology, []topo.NodeID, error) {
	if in.Name == "" {
		return nil, nil, fmt.Errorf("inline topology needs a name")
	}
	if len(in.Nodes) < 2 || len(in.Links) < 1 {
		return nil, nil, fmt.Errorf("inline topology needs >= 2 nodes and >= 1 link")
	}
	g := topo.New(in.Name)
	ids := make(map[string]topo.NodeID, len(in.Nodes))
	for _, n := range in.Nodes {
		if n.Name == "" {
			return nil, nil, fmt.Errorf("inline node without a name")
		}
		if _, dup := ids[n.Name]; dup {
			return nil, nil, fmt.Errorf("duplicate inline node %q", n.Name)
		}
		var kind topo.Kind
		switch n.Kind {
		case "", "router":
			kind = topo.KindRouter
		case "core":
			kind = topo.KindCore
		case "aggr":
			kind = topo.KindAggr
		case "edge":
			kind = topo.KindEdge
		case "host":
			kind = topo.KindHost
		default:
			return nil, nil, fmt.Errorf("inline node %q: unknown kind %q", n.Name, n.Kind)
		}
		ids[n.Name] = g.AddNodeAt(n.Name, kind, n.KmEast, n.KmNorth)
	}
	for _, l := range in.Links {
		a, okA := ids[l.A]
		b, okB := ids[l.B]
		if !okA || !okB {
			return nil, nil, fmt.Errorf("inline link %s-%s references an unknown node", l.A, l.B)
		}
		if l.CapacityGbps <= 0 {
			return nil, nil, fmt.Errorf("inline link %s-%s needs capacity_gbps > 0", l.A, l.B)
		}
		lat := l.LatencyMs / 1000
		if l.LatencyMs == 0 {
			lat = 0.001
		}
		g.AddLink(a, b, l.CapacityGbps*1e9, lat)
	}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("inline topology invalid: %v", err)
	}
	if !g.Connected() {
		return nil, nil, fmt.Errorf("inline topology is not connected")
	}
	return g, core.DefaultEndpoints(g), nil
}

// newTenant plans the tenant's topology, installs its replay and
// starts the loop goroutine. The initial plan is stored as the
// promoted artifact, so every tenant always has a rollback anchor.
func newTenant(spec TenantSpec, h *hub, maxArtifacts int) (*tenant, error) {
	if !tenantNameRe.MatchString(spec.Name) {
		return nil, fmt.Errorf("tenant name %q must match %s", spec.Name, tenantNameRe)
	}
	g, endpoints, err := buildTopology(spec.Topology)
	if err != nil {
		return nil, err
	}
	cfg := spec.scenarioConfig()
	simRate := 0.0
	if w := spec.Workload; w != nil {
		simRate = w.SimRate
	}
	events := trace.NewEventWriter(newTenantTee(h, spec.Name))
	cfg.Events = events
	rt := &metrics.Runtime{}
	cfg.Metrics = rt
	rep, err := scenario.NewDiurnal(g, endpoints, cfg)
	if err != nil {
		return nil, err
	}
	t := &tenant{
		name:      spec.Name,
		rep:       rep,
		planner:   response.NewPlanner(response.WithEndpoints(endpoints)),
		topoGraph: g,
		store:     newArtifactStore(maxArtifacts),
		events:    events,
		metrics:   rt,
		cmds:      make(chan func()),
		quit:      make(chan struct{}),
		dead:      make(chan struct{}),
		simRate:   simRate,
	}
	// Shelve the initial plan as the promoted artifact.
	initial := rep.Mgr.CurrentPlan()
	var buf bytes.Buffer
	if _, err := initial.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("serialize initial plan: %v", err)
	}
	d := t.store.put(buf.Bytes(), initial.Fingerprint(), initial.Variant(), len(initial.Pairs()), "initial")
	t.store.setPromoted(d)
	go t.loop()
	return t, nil
}

// loop owns the replay: it serializes every command and, when the
// tenant is paced, advances simulated time between commands. Nothing
// else may touch t.rep (Mgr.Metrics/State excepted — they are the
// snapshot accessors).
func (t *tenant) loop() {
	defer close(t.dead)
	const tick = 50 * time.Millisecond
	timer := time.NewTimer(tick)
	defer timer.Stop()
	for {
		select {
		case <-t.quit:
			t.rep.Mgr.Stop()
			return
		case cmd := <-t.cmds:
			cmd()
		case <-timer.C:
			if rate := t.rate(); rate > 0 {
				t.rep.Advance(rate * tick.Seconds())
			}
			timer.Reset(tick)
		}
	}
}

func (t *tenant) rate() float64 {
	t.rateMu.Lock()
	defer t.rateMu.Unlock()
	return t.simRate
}

func (t *tenant) setRate(r float64) {
	t.rateMu.Lock()
	t.simRate = r
	t.rateMu.Unlock()
}

// do runs fn on the loop goroutine and waits for it.
func (t *tenant) do(fn func()) error {
	done := make(chan struct{})
	select {
	case t.cmds <- func() { fn(); close(done) }:
	case <-t.dead:
		return errTenantStopped
	}
	select {
	case <-done:
		return nil
	case <-t.dead:
		return errTenantStopped
	}
}

// stop terminates the loop goroutine and waits for it to unwind.
func (t *tenant) stop() {
	select {
	case <-t.quit:
	default:
		close(t.quit)
	}
	<-t.dead
}

// liveMatrix snapshots the tenant's live demand matrix (run on the
// loop goroutine via do).
func (t *tenant) liveMatrixLocked() *traffic.Matrix {
	m := traffic.NewMatrix()
	t.rep.Ctrl.EachManaged(func(f *sim.Flow) {
		if f.Demand > 0 {
			m.Add(f.O, f.D, f.Demand)
		}
	})
	return m
}

// registry is the named-tenant table. Per-tenant state is behind each
// tenant's own loop; the registry lock only guards membership.
type registry struct {
	mu      sync.RWMutex
	tenants map[string]*tenant
}

func newRegistry() *registry {
	return &registry{tenants: make(map[string]*tenant)}
}

func (r *registry) add(t *tenant) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tenants[t.name]; dup {
		return fmt.Errorf("controld: tenant %q already registered", t.name)
	}
	r.tenants[t.name] = t
	return nil
}

func (r *registry) get(name string) (*tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	return t, ok
}

func (r *registry) remove(name string) (*tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	if ok {
		delete(r.tenants, name)
	}
	return t, ok
}

func (r *registry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tenants))
	for n := range r.tenants {
		out = append(out, n)
	}
	return out
}

func (r *registry) all() []*tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	return out
}
