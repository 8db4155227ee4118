package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"

	"response"
	"response/internal/core"
	"response/internal/mcf"
	"response/internal/metrics"
	"response/internal/power"
	"response/internal/sim"
	"response/internal/spf"
	"response/internal/topo"
	"response/internal/tracestore"
	"response/internal/traffic"
)

const (
	// minQueries is how many point-to-point queries each spf probe
	// issues at least, cycling over the ordered endpoint pairs.
	minQueries = 4000
	// maxYenPairs caps the k-shortest probe, whose per-query cost is
	// two orders above a single Dijkstra.
	maxYenPairs = 300
	yenK        = 4
	avoidShare  = 0.2 // of links behind the Avoid predicate
	probeReps   = 3   // repetitions of a probe reported as a median
	// racingDrills is how many drill-downs race the ingest probe.
	racingDrills = 50
)

// probes runs the traced-only layer probes: each times an existing
// public function of one layer on this workload's own instance, plans
// and demands, outside the measured phases.
func (r *run) probes() error {
	for _, probe := range []struct {
		layer string
		run   func() error
	}{{"spf", r.probeSPF}, {"mcf", r.probeMCF}, {"planner", r.probePlanner}, {"online", r.probeOnline}, {"trace", r.probeDiag}} {
		if err := probe.run(); err != nil {
			return fmt.Errorf("%s probe: %w", probe.layer, err)
		}
	}
	r.probeOverhead()
	return nil
}

// per times n calls of fn under one span and returns seconds per call.
func (r *run) per(name string, n int, fn func(i int)) float64 {
	d := r.rec.op(name, 0, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	return d.Seconds() / float64(n)
}

// med times fn probeReps times, one span each, and returns the median
// seconds.
func (r *run) med(name string, fn func()) float64 {
	for i := 0; i < probeReps; i++ {
		r.rec.op(name, i, fn)
	}
	return median(r.rec.samples[name])
}

// probeSPF times the path engines over every ordered endpoint pair of
// the planned instance, one Workspace throughout.
func (r *run) probeSPF() error {
	t, eps := r.plan.inst.Topo, r.plan.inst.Endpoints
	var pairs [][2]topo.NodeID
	for _, o := range eps {
		for _, d := range eps {
			if o != d {
				pairs = append(pairs, [2]topo.NodeID{o, d})
			}
		}
	}
	if len(pairs) == 0 {
		return fmt.Errorf("instance has no endpoint pairs")
	}
	n := max(minQueries, len(pairs))
	ws := spf.NewWorkspace()

	// First, while no goal-directed query has built them yet.
	build := r.rec.op("spf.landmarks_build", 0, func() { spf.LandmarksFor(t) })
	r.lay("spf.landmarks_build_ms", build.Seconds()*1e3, 1)

	// Latency weight (the default) under every engine: it is the base
	// weight of the planner's load-aware queries and the one weight all
	// three engines accept, so the three numbers are an A/B.
	query := func(name string, opts spf.Options) {
		v := r.per(name, n, func(i int) {
			p := pairs[i%len(pairs)]
			ws.ShortestPath(t, p[0], p[1], opts)
		})
		r.lay(name+"_us", v*1e6, n)
	}
	query("spf.shortest_path", spf.Options{})
	query("spf.shortest_path_alt", spf.Options{Engine: spf.EngineALT})
	query("spf.shortest_path_bidi", spf.Options{Engine: spf.EngineBidirectional})

	avoid := make([]bool, t.NumLinks())
	rng := r.rng(streamAvoid)
	for _, l := range rng.Perm(len(avoid))[:int(avoidShare*float64(len(avoid)))] {
		avoid[l] = true
	}
	query("spf.shortest_path_avoid", spf.Options{Avoid: func(a topo.Arc) bool { return avoid[a.Link] }})

	ny := min(maxYenPairs, len(pairs))
	v := r.per("spf.kshortest", ny, func(i int) { ws.KShortest(t, pairs[i][0], pairs[i][1], yenK, spf.Options{}) })
	r.lay("spf.kshortest_us", v*1e6, ny)

	invcap := spf.Options{Weight: spf.InvCap()}
	v = r.per("spf.shortest_tree", n, func(i int) { ws.ShortestTree(t, eps[i%len(eps)], invcap) })
	r.lay("spf.shortest_tree_us", v*1e6, n)
	return nil
}

// probeMCF times the routing and subset-search entry points on the
// instance's matched matrix.
func (r *run) probeMCF() error {
	p := &r.plan
	t := p.inst.Topo
	demands := p.inst.TM.Demands()
	model := power.Cisco12000{}

	var routing *mcf.Routing
	var err error
	v := r.med("mcf.route_demands", func() { routing, err = mcf.RouteDemands(t, demands, mcf.RouteOpts{}) })
	if err != nil {
		return err
	}
	r.lay("mcf.route_demands_ms", v*1e3, probeReps)
	r.lay("mcf.feasible_ms", r.med("mcf.feasible", func() { mcf.Feasible(t, demands, mcf.RouteOpts{}) })*1e3, probeReps)
	r.lay("core.stress_factor_ms", r.med("core.stress_factor", func() { core.StressFactor(t, routing) })*1e3, probeReps)

	d := r.rec.op("mcf.greedy_min_subset", 0, func() { _, _, err = mcf.GreedyMinSubset(t, demands, model, mcf.GreedyOpts{}) })
	if err != nil {
		return err
	}
	r.lay("mcf.greedy_min_subset_ms", d.Seconds()*1e3, 1)
	d = r.rec.op("mcf.max_feasible_scale", 0, func() { mcf.MaxFeasibleScale(t, p.inst.Shape, mcf.RouteOpts{}, 0.05) })
	r.lay("mcf.max_feasible_scale_ms", d.Seconds()*1e3, 1)

	// The subset search as core's always-on stage calls it, cold and
	// then warm-started from its own result.
	opts := mcf.OptimalOpts{RandomRestarts: r.sh.coreRestarts(), Seed: structSeed}
	var active *topo.ActiveSet
	cold := r.rec.op("mcf.optimal_subset", 0, func() { active, _, err = mcf.OptimalSubsetContext(r.ctx, t, demands, model, opts) })
	if err != nil {
		return err
	}
	opts.Warm = &mcf.WarmStart{Active: active}
	warm := r.rec.op("mcf.optimal_subset_warm", 0, func() { _, _, err = mcf.OptimalSubsetContext(r.ctx, t, demands, model, opts) })
	if err != nil {
		return err
	}
	r.lay("mcf.optimal_subset_ms", cold.Seconds()*1e3, 1)
	r.lay("mcf.optimal_subset_warm_ms", warm.Seconds()*1e3, 1)
	r.lay("mcf.warm_speedup", cold.Seconds()/warm.Seconds(), 1)
	r.lay("mcf.subset_watts", mcf.WattsOf(t, model, active), 1)

	// The delta-rerouting fast path against its from-scratch oracle, on
	// the ε-demand of the oblivious plan (the capacity-slack regime the
	// fast path exists for).
	eps := traffic.Uniform(p.inst.Endpoints, 1).Demands()
	delta := r.rec.op("mcf.greedy_delta_reroute", 0, func() { _, _, err = mcf.GreedyMinSubset(t, eps, model, mcf.GreedyOpts{}) })
	if err != nil {
		return err
	}
	full := r.rec.op("mcf.greedy_full_reroute", 0, func() {
		_, _, err = mcf.GreedyMinSubset(t, eps, model, mcf.GreedyOpts{FullReroute: true})
	})
	if err != nil {
		return err
	}
	r.lay("mcf.greedy_full_reroute_ms", full.Seconds()*1e3, 1)
	r.lay("mcf.delta_reroute_speedup", full.Seconds()/delta.Seconds(), 1)
	return nil
}

// probePlanner times the facade against core, the other two path
// engines at the Plan layer, and the plan-level helpers.
func (r *run) probePlanner() error {
	p := &r.plan
	t := p.inst.Topo
	model := power.Cisco12000{}

	copts := core.PlanOpts{Model: model, Nodes: p.inst.Endpoints, Seed: structSeed, RandomRestarts: r.sh.coreRestarts()}
	var err error
	bare := r.rec.op("core.plan_context", 0, func() { _, err = core.PlanContext(r.ctx, t, copts) })
	if err != nil {
		return err
	}
	facade := median(r.rec.samples[opPlanCold])
	r.lay("response.plan_overhead_ms", (facade-bare.Seconds())*1e3, 1)

	for _, eng := range []struct{ metric, name string }{
		{"response.plan_cold_alt_s", response.PathEngineALT},
		{"response.plan_cold_bidi_s", response.PathEngineBidirectional},
	} {
		var plan *response.Plan
		d := r.rec.op(eng.metric, 0, func() { plan, err = p.planner.Plan(r.ctx, t, response.WithPathEngine(eng.name)) })
		if err != nil {
			return err
		}
		r.check(plan.Fingerprint() == p.cold.Fingerprint(), "engine %s planned different tables than the reference engine", eng.name)
		r.lay(eng.metric, d.Seconds(), 1)
	}

	r.lay("response.diff_plans_ms", r.med("response.diff_plans", func() { _, err = response.DiffPlans(p.cold, p.replan) })*1e3, probeReps)
	if err != nil {
		return err
	}
	r.lay("core.evaluate_ms", r.med("core.evaluate", func() { p.cold.Evaluate(p.inst.TM, model, 0.9) })*1e3, probeReps)
	return nil
}

// probeOnline times the TE agent and the allocator alone, and replays
// the first hours again at the same seed.
func (r *run) probeOnline() error {
	o := &r.online

	again, err := r.newReplay(o)
	if err != nil {
		return err
	}
	r.rec.op("scenario.replay_again", 0, func() { again.Advance(3600 * float64(min(fingerprintHours, r.sh.Hours))) })
	stable := 0.0
	if again.Ctrl.Fingerprint() == o.fingerprint {
		stable = 1
	}
	r.check(stable == 1, "a second replay of the same configuration diverged from the first within %d hours", fingerprintHours)
	r.lay("scenario.fingerprint_stable", stable, 1)

	// One synchronous probe-collect-decide cycle per managed flow of
	// the replay the workload just ran.
	var flows []*sim.Flow
	o.rep.Ctrl.EachManaged(func(f *sim.Flow) { flows = append(flows, f) })
	v := r.per("te.decide_once", len(flows), func(i int) { o.rep.Ctrl.DecideOnce(flows[i]) })
	r.lay("te.decide_once_ns", v*1e9, len(flows))

	// A loaded simulator whose controller never starts: every demand
	// change goes through the allocator and nothing else reacts.
	rig, err := r.loadSim(o.inst, o.planA, r.sh.Flows)
	if err != nil {
		return err
	}
	rig.sim.Run(1)
	var walls []float64
	for pass := 0; pass < probeReps; pass++ {
		scale := 1 + 0.01*float64(pass+1)
		d := r.rec.op("sim.set_demands", pass, func() {
			for _, f := range rig.flows {
				rig.sim.SetDemand(f, f.Demand*scale)
			}
			rig.sim.Run(rig.sim.Now() + 1)
		})
		walls = append(walls, d.Seconds()/float64(len(rig.flows)))
	}
	r.lay("sim.set_demand_us", median(walls)*1e6, len(rig.flows))
	return nil
}

// probeDiag times the other use of the trace store — bounded retention
// and queries racing an ingest — and the Prometheus renderer.
func (r *run) probeDiag() error {
	d := &r.diag
	events := r.sh.TraceEvents

	bounded := tracestore.New(tracestore.Opts{MaxEvents: events / boundedShare})
	var err error
	wall := r.rec.op("tracestore.ingest_bounded", 0, func() { _, _, err = bounded.Ingest(bytes.NewReader(d.stream)) })
	if err != nil {
		return err
	}
	st := bounded.Stats()
	r.check(st.Events == events/boundedShare && st.Evicted == events-st.Events,
		"bounded ingest retained %d and evicted %d of %d events", st.Events, st.Evicted, events)
	r.lay("tracestore.ingest_bounded_events_per_s", float64(events)/wall.Seconds(), 1)
	r.lay("tracestore.evicted", float64(st.Evicted), 1)

	// racingDrills drill-downs from a second goroutine while this one
	// ingests. Every IngestLine takes the store's write lock, so a drill
	// in flight holds up the ingest for its whole scan: the count is
	// fixed because an open-ended driller starves the ingest (measured
	// while sizing this: 2 100 lines/s against 450 000 uncontended).
	live := tracestore.New(tracestore.Opts{MaxEvents: events})
	rec := r.rec.fork()
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for i := 0; i < racingDrills; {
			if live.Stats().Ingested < 2*perWindow {
				runtime.Gosched() // the first incident window is not in yet
				continue
			}
			rec.op("tracestore.drill_during_ingest", i, func() { drill(rec, live, d.incidents[0], i) })
			i++
		}
	}()
	_, _, err = live.Ingest(bytes.NewReader(d.stream))
	<-exited
	if err != nil {
		return err
	}
	// The racing drills' tier samples stay out of the quiet-store
	// medians already reported; their spans are kept.
	racing := rec.samples["tracestore.drill_during_ingest"]
	r.rec.spans = append(r.rec.spans, rec.spans...)
	r.lay("tracestore.drill_during_ingest_p50_us", median(racing)*1e6, len(racing))

	sets := make([]metrics.Labeled, r.sh.Tenants)
	for i := range sets {
		sets[i] = metrics.Labeled{Tenant: fmt.Sprintf("t%d", i), Runtime: &metrics.Runtime{}}
	}
	v := r.per("metrics.write_prometheus", 100, func(int) { err = metrics.WritePrometheus(io.Discard, sets) })
	if err != nil {
		return err
	}
	r.lay("metrics.write_prometheus_us", v*1e6, 100)
	return nil
}

// probeOverhead estimates what tracing cost the measured phases: the
// spans they recorded × the calibrated cost of recording one, over
// their wall time. (The untraced run of the same seed is another
// process, so the two walls cannot be subtracted here; their
// measured_wall_s sit side by side in the two result files.)
func (r *run) probeOverhead() {
	const calibration = 50000
	scratch := newRecorder(&clock{workload: r.sh.Name, origin: r.rec.clk.origin, traced: true})
	cost := scratch.op("calibrate", 0, func() {
		for i := 0; i < calibration; i++ {
			scratch.op("noop", i, func() {})
		}
	}).Seconds() / calibration
	r.lay("trace.overhead_frac", float64(r.phaseSpans)*cost/r.wall.Seconds(), r.phaseSpans)
}
