package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"response"
	"response/internal/topogen"
	"response/internal/verify"
)

// Seed streams (see run.rng).
const (
	streamAvoid = iota + 1
	streamClients
	streamTrace
)

// warmTolerance is WithWarmTolerance's default, the gate a warm replan
// is held to against the cold replan of the same matrix.
const warmTolerance = 0.05

// planState is what the offline phase leaves for the later phases and
// the probes: the instance and iteration 0's plans.
type planState struct {
	inst    *topogen.Instance
	planner *response.Planner
	cold    *response.Plan // traffic-oblivious
	replan  *response.Plan // demand-aware, from scratch
	warm    *response.Plan // demand-aware, warm-started from cold
}

// The three planning calls of one iteration, by op name.
const (
	opPlanCold   = "plan_cold"
	opReplanCold = "replan_cold"
	opReplanWarm = "replan_warm"
)

// stagePrefix names the core stage spans of each planning call.
var stagePrefix = map[string]string{opPlanCold: "core.cold_", opReplanCold: "core.replan_", opReplanWarm: "core.warm_"}

// timedPlan is one Planner.Plan call as an op; a traced run adds the
// Progress callback and records each stage boundary as a child span.
func (r *run) timedPlan(op string, iter int, opts ...response.Option) (*response.Plan, error) {
	var last time.Time
	if r.traced {
		opts = append(opts, response.WithProgress(func(p response.PlanProgress) {
			now := time.Now()
			if p.Stage != "done" {
				r.rec.interval(stagePrefix[op]+strings.ReplaceAll(p.Stage, "-", "_"), iter, last, now)
			}
			last = now
		}))
	}
	var plan *response.Plan
	var err error
	r.rec.op(op, iter, func() {
		last = time.Now()
		plan, err = r.plan.planner.Plan(r.ctx, r.plan.inst.Topo, opts...)
	})
	r.check(err == nil, "%s iteration %d: %v", op, iter, err)
	return plan, err
}

// planPhase is the offline half: PlanIters × (cold plan → demand-aware
// replan → the same replan warm-started from the cold plan).
func (r *run) planPhase() error {
	p := &r.plan
	inst, err := setupStep(r, "plan instance", func() (*topogen.Instance, error) {
		var inst *topogen.Instance
		var err error
		r.rec.layer("topogen.generate", 0, func() { inst, err = buildNet(r.sh.Plan) })
		return inst, err
	}, nil)
	if err != nil {
		return err
	}
	p.inst = inst
	base := []response.Option{response.WithEndpoints(inst.Endpoints), response.WithSeed(structSeed)}
	if r.sh.Restarts >= 0 {
		base = append(base, response.WithRestarts(r.sh.Restarts))
	}
	p.planner = response.NewPlanner(base...)

	err = r.measured(func() error {
		for i := 0; i < r.sh.PlanIters; i++ {
			cold, err := r.timedPlan(opPlanCold, i)
			if err != nil {
				return err
			}
			replan, err := r.timedPlan(opReplanCold, i, response.WithLowMatrix(inst.TM))
			if err != nil {
				return err
			}
			warm, err := r.timedPlan(opReplanWarm, i, response.WithLowMatrix(inst.TM), response.WithWarmStart(cold))
			if err != nil {
				return err
			}
			if i == 0 {
				p.cold, p.replan, p.warm = cold, replan, warm
				continue
			}
			// Same inputs, same plans: later iterations are vetted by
			// matching iteration 0, which is checked in full below.
			r.check(cold.Fingerprint() == p.cold.Fingerprint() &&
				replan.Fingerprint() == p.replan.Fingerprint() &&
				warm.Fingerprint() == p.warm.Fingerprint(),
				"iteration %d planned different tables than iteration 0", i)
		}
		return nil
	})
	if err != nil {
		return err
	}

	violations := 0
	var artifactBytes int
	for i, plan := range []*response.Plan{p.cold, p.replan, p.warm} {
		var rep *verify.Report
		r.rec.layer("verify.check_tables", i, func() {
			rep = verify.CheckTables(inst.Topo, plan.Tables(), verify.Opts{TM: inst.Shape, NetScale: inst.MaxScale})
		})
		violations += len(rep.Violations)
		r.check(rep.Ok(), "plan %d: %v", i, rep.Err())
		n, err := r.roundTrip(plan, i)
		r.check(err == nil, "plan %d artifact: %v", i, err)
		artifactBytes = n
	}
	model := response.Cisco12000{}
	full := response.FullWatts(inst.Topo, model)
	coldW := response.NetworkWatts(inst.Topo, model, p.cold.AlwaysOnSet())
	replanW := response.NetworkWatts(inst.Topo, model, p.replan.AlwaysOnSet())
	warmW := response.NetworkWatts(inst.Topo, model, p.warm.AlwaysOnSet())
	r.check(warmW <= replanW*(1+warmTolerance), "warm replan %.0f W exceeds cold replan %.0f W by more than %g", warmW, replanW, warmTolerance)

	s := r.rec.samples
	r.e2e("plan_cold_s", median(s[opPlanCold]), len(s[opPlanCold]))
	r.e2e("replan_cold_s", median(s[opReplanCold]), len(s[opReplanCold]))
	r.e2e("replan_warm_s", median(s[opReplanWarm]), len(s[opReplanWarm]))
	r.e2e("always_on_power_frac", coldW/full, 1)

	r.layMedian("topogen.generate_ms", "topogen.generate", 1e3)
	for _, stage := range []string{"cold_always_on", "cold_on_demand", "cold_failover",
		"replan_always_on", "replan_on_demand", "warm_always_on", "warm_on_demand"} {
		r.layMedian("core."+stage+"_ms", "core."+stage, 1e3)
	}
	r.lay("core.on_demand_share", median(s["core.cold_on_demand"])/median(s[opPlanCold]), len(s[opPlanCold]))
	r.lay("core.pairs", float64(len(p.cold.Pairs())), 1)
	r.lay("core.tunnels", float64(p.cold.TunnelCount()), 1)
	r.layMedian("response.artifact_write_ms", "response.artifact_write", 1e3)
	r.layMedian("response.artifact_read_ms", "response.artifact_read", 1e3)
	r.lay("response.artifact_bytes", float64(artifactBytes), 1)
	identical := 0.0
	if p.warm.Fingerprint() == p.replan.Fingerprint() {
		identical = 1
	}
	r.lay("response.warm_identical", identical, 1)
	r.lay("response.warm_power_ratio", warmW/replanW, 1)
	r.layMedian("verify.check_tables_ms", "verify.check_tables", 1e3)
	r.lay("verify.violations", float64(violations), 3)
	return nil
}

// roundTrip writes plan as an artifact and checks that the artifact
// survives a read and a second write unchanged. It returns the artifact
// size.
func (r *run) roundTrip(plan *response.Plan, iter int) (int, error) {
	var raw bytes.Buffer
	var err error
	r.rec.layer("response.artifact_write", iter, func() { _, err = plan.WriteTo(&raw) })
	if err != nil {
		return 0, err
	}
	return raw.Len(), rereadArtifact(r.rec, raw.Bytes(), plan.Topology(), iter)
}

// rereadArtifact reads an artifact back and writes it again; the bytes
// must not change.
func rereadArtifact(rec *recorder, raw []byte, t *response.Topology, iter int) error {
	var loaded *response.Plan
	var err error
	rec.layer("response.artifact_read", iter, func() { loaded, err = response.ReadPlanFrom(bytes.NewReader(raw), t) })
	if err != nil {
		return err
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), raw) {
		return fmt.Errorf("artifact changed across a write→read→write round trip (%d vs %d bytes)", again.Len(), len(raw))
	}
	return nil
}
