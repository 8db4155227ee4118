package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"response"
	"response/internal/lifecycle"
	"response/internal/scenario"
	"response/internal/sim"
	"response/internal/te"
	"response/internal/topo"
	"response/internal/topogen"
	"response/internal/verify"
)

const (
	stormLinks = 5   // links cut together in one storm cycle
	stormHold  = 600 // simulated seconds failed, then repaired, per cycle
	// fingerprintHours is how far into the measured hours the replay's
	// behavioural fingerprint is noted for the same-seed replay probe.
	fingerprintHours = 6
	// minDelivered is the share of the offered load the calm diurnal
	// hours must carry.
	minDelivered = 0.99
)

// onlineState is what the online phase leaves for the probes.
type onlineState struct {
	inst         *topogen.Instance
	planA, planB *response.Plan
	cfg          scenario.Config
	fingerprint  uint64 // controller fingerprint after fingerprintHours
	rep          *scenario.Replay
}

// swapRig is a loaded simulator/controller pair under a lifecycle
// manager that never replans on its own: the hot-swap machinery alone,
// as experiments.measureSwap builds it.
type swapRig struct {
	sim   *sim.Simulator
	ctrl  *te.Controller
	mgr   *lifecycle.Manager
	flows []*sim.Flow
}

// loadSim spreads flows managed flows over planA's pairs on a fresh
// simulator, derated so the always-on paths stay far below the
// activation threshold — a swap then measures retargeting, not
// congestion reaction. Flows are added first and handed to the
// controller second so a traced run can time the two layers apart.
func (r *run) loadSim(inst *topogen.Instance, planA *response.Plan, flows int) (*swapRig, error) {
	t := inst.Topo
	demands := inst.TM.Demands()
	if len(demands) == 0 {
		return nil, fmt.Errorf("instance %s has no demands", t.Name)
	}
	derate := 1.0
	if worst := verify.AlwaysOnMaxUtil(t, planA, inst.TM); worst > 0.2 {
		derate = 0.2 / worst
	}
	rig := &swapRig{
		sim: sim.New(t, sim.Opts{WakeUpDelay: 5, SleepAfterIdle: 60, PinnedOn: planA.AlwaysOnSet()}),
	}
	rig.ctrl = te.NewController(rig.sim, te.Opts{Threshold: 0.9, Gamma: 0.5, Period: 60})
	perPair, extra := flows/len(demands), flows%len(demands)
	var err error
	r.rec.layer("sim.add_flows", 0, func() {
		for i, d := range demands {
			ps, ok := planA.PathSet(d.O, d.D)
			if !ok {
				continue
			}
			k := perPair
			if i < extra {
				k++
			}
			for j := 0; j < k; j++ {
				var f *sim.Flow
				if f, err = rig.sim.AddFlow(d.O, d.D, d.Rate*derate/float64(k), ps.Levels()); err != nil {
					return
				}
				rig.flows = append(rig.flows, f)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	r.rec.layer("te.manage_flows", 0, func() {
		for _, f := range rig.flows {
			rig.ctrl.Manage(f)
		}
	})
	return rig, nil
}

// buildRig is loadSim with the controller running and a lifecycle
// manager attached, settled for two simulated minutes.
func (r *run) buildRig(inst *topogen.Instance, planA *response.Plan, flows int) (*swapRig, error) {
	rig, err := r.loadSim(inst, planA, flows)
	if err != nil {
		return nil, err
	}
	rig.ctrl.Start()
	rig.sim.Run(120)
	rig.mgr = lifecycle.New(rig.sim, rig.ctrl, planA,
		func(context.Context, *response.TrafficMatrix) (*response.Plan, error) {
			return nil, fmt.Errorf("bench: the swap rig never replans")
		}, lifecycle.Opts{CheckEvery: 1e9, NoPowerGate: true})
	rig.mgr.Start()
	return rig, nil
}

// newReplay builds the diurnal replay and runs its warm-up hour.
func (r *run) newReplay(o *onlineState) (*scenario.Replay, error) {
	var rep *scenario.Replay
	var err error
	r.rec.layer("scenario.new_replay", 0, func() {
		rep, err = scenario.NewDiurnal(o.inst.Topo, o.inst.Endpoints, o.cfg)
	})
	if err != nil {
		return nil, err
	}
	rep.Advance(3600)
	return rep, nil
}

// onlinePhase is the online half: calm diurnal hours, failure storms
// and plan hot swaps over the same sim/te code.
func (r *run) onlinePhase() error {
	o := &r.online
	if r.sh.Runtime == r.sh.Plan {
		o.inst, o.planA, o.planB = r.plan.inst, r.plan.cold, r.plan.replan
	} else {
		type planned struct {
			inst *topogen.Instance
			a, b *response.Plan
		}
		p, err := setupStep(r, "runtime instance", func() (planned, error) {
			inst, err := buildNet(r.sh.Runtime)
			if err != nil {
				return planned{}, err
			}
			planner := response.NewPlanner(response.WithEndpoints(inst.Endpoints), response.WithSeed(structSeed))
			a, err := planner.Plan(r.ctx, inst.Topo)
			if err != nil {
				return planned{}, err
			}
			b, err := planner.Plan(r.ctx, inst.Topo, response.WithLowMatrix(inst.TM))
			return planned{inst, a, b}, err
		}, nil)
		if err != nil {
			return err
		}
		o.inst, o.planA, o.planB = p.inst, p.a, p.b
	}
	// The replay is structural (see structSeed): the flows' diurnal
	// phases and the links a storm cuts decide how much work an hour or
	// a cycle is.
	o.cfg = scenario.Config{Seed: structSeed, Flows: r.sh.Flows}
	var links []topo.LinkID
	for _, l := range rand.New(rand.NewSource(structSeed)).Perm(o.inst.Topo.NumLinks())[:stormLinks] {
		links = append(links, topo.LinkID(l))
	}

	rep, err := setupStep(r, "replay", func() (*scenario.Replay, error) { return r.newReplay(o) }, nil)
	if err != nil {
		return err
	}
	o.rep = rep

	var mallocs, decisions, shifts, wakes float64 // deltas over the hours (first three) and the storms
	var calm scenario.Result
	err = r.measured(func() error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d0, s0 := rep.Ctrl.Decisions, rep.Ctrl.Shifts
		for h := 0; h < r.sh.Hours; h++ {
			r.rec.op("sim_hour", h, func() { rep.Advance(3600) })
			if h+1 == min(fingerprintHours, r.sh.Hours) {
				o.fingerprint = rep.Ctrl.Fingerprint()
			}
		}
		runtime.ReadMemStats(&after)
		mallocs = float64(after.Mallocs - before.Mallocs)
		decisions = float64(rep.Ctrl.Decisions - d0)
		shifts = float64(rep.Ctrl.Shifts - s0)
		calm = rep.Finish()

		w0 := rep.Ctrl.Wakes
		for c := 0; c < r.sh.Storms; c++ {
			r.rec.op("storm_cycle", c, func() {
				r.rec.layer("sim.fail_links", c, func() {
					for _, l := range links {
						rep.Sim.FailLink(l)
					}
				})
				rep.Advance(stormHold)
				r.rec.layer("sim.repair_links", c, func() {
					for _, l := range links {
						rep.Sim.RepairLink(l)
					}
				})
				rep.Advance(stormHold)
			})
		}
		wakes = float64(rep.Ctrl.Wakes - w0)
		return nil
	})
	if err != nil {
		return err
	}
	r.attempted += r.sh.Hours + r.sh.Storms
	end := rep.Finish()
	r.check(calm.DeliveredFrac() >= minDelivered, "calm hours delivered %.4f of the offered load, want ≥ %g", calm.DeliveredFrac(), minDelivered)
	r.check(end.Healthy() && rep.Starving() == 0, "replay ended unhealthy: state %q, %d flows starving", end.FinalState, rep.Starving())

	rig, err := setupStep(r, "swap rig", func() (*swapRig, error) { return r.buildRig(o.inst, o.planA, r.sh.Flows) }, nil)
	if err != nil {
		return err
	}
	var migrated []float64
	err = r.measured(func() error {
		for i := 0; i < r.sh.Swaps; i++ {
			target := o.planB
			if i%2 == 1 {
				target = o.planA
			}
			before := rig.mgr.Metrics().MigratedFlows
			var err error
			r.rec.op("swap", i, func() {
				r.rec.layer("lifecycle.stage", i, func() { err = rig.mgr.StageAndSwap(target) })
				r.rec.layer("lifecycle.drain", i, func() {
					for step := 0; step < 20 && rig.mgr.State() != lifecycle.StateIdle; step++ {
						rig.sim.Run(rig.sim.Now() + 60)
					}
				})
			})
			moved := rig.mgr.Metrics().MigratedFlows - before
			migrated = append(migrated, float64(moved))
			r.check(err == nil && rig.mgr.State() == lifecycle.StateIdle && moved > 0,
				"swap %d: err %v, state %v, %d flows migrated", i, err, rig.mgr.State(), moved)
		}
		return nil
	})
	if err != nil {
		return err
	}

	s := r.rec.samples
	hours, storms := float64(r.sh.Hours), float64(r.sh.Storms)
	r.e2e("sim_hour_wall_ms", mean(s["sim_hour"])*1e3, len(s["sim_hour"]))
	r.e2e("storm_cycle_ms", median(s["storm_cycle"])*1e3, len(s["storm_cycle"]))
	r.e2e("swap_ms", median(s["swap"])*1e3, len(s["swap"]))

	half := r.sh.Hours / 2
	r.layMedian("scenario.new_replay_ms", "scenario.new_replay", 1e3)
	r.lay("scenario.hour_wall_day1_ms", mean(s["sim_hour"][:half])*1e3, half)
	r.lay("scenario.hour_wall_day2_ms", mean(s["sim_hour"][half:])*1e3, r.sh.Hours-half)
	r.lay("scenario.hour_wall_max_ms", slices.Max(s["sim_hour"])*1e3, r.sh.Hours)
	r.lay("scenario.delivered_frac", calm.DeliveredFrac(), 1)
	r.lay("sim.add_flow_us", median(s["sim.add_flows"])*1e6/float64(len(rig.flows)), len(rig.flows))
	r.lay("te.manage_us", median(s["te.manage_flows"])*1e6/float64(len(rig.flows)), len(rig.flows))
	r.lay("sim.fail_link_ms", median(s["sim.fail_links"])*1e3/stormLinks, len(s["sim.fail_links"]))
	r.lay("sim.repair_link_ms", median(s["sim.repair_links"])*1e3/stormLinks, len(s["sim.repair_links"]))
	r.lay("sim.mallocs_per_sim_hour", mallocs/hours, r.sh.Hours)
	r.lay("te.decisions_per_sim_hour", decisions/hours, r.sh.Hours)
	r.lay("te.shifts_per_sim_hour", shifts/hours, r.sh.Hours)
	r.lay("te.wakes_per_storm", wakes/storms, r.sh.Storms)
	r.layMedian("lifecycle.stage_ms", "lifecycle.stage", 1e3)
	r.layMedian("lifecycle.drain_ms", "lifecycle.drain", 1e3)
	r.lay("lifecycle.migrated_flows", mean(migrated), len(migrated))
	r.lay("lifecycle.swap_us_per_migrated_flow", median(s["swap"])*1e6/mean(migrated), len(migrated))
	r.lay("lifecycle.staged_artifact_bytes", float64(len(rig.mgr.StagedArtifact())), 1)
	r.lay("lifecycle.swaps_done", float64(rig.mgr.Metrics().SwapsDone), 1)
	return nil
}
