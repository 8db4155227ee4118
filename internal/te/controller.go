// Package te implements REsPoNseTE, the paper's online traffic
// engineering component (§4.4): edge agents periodically probe the
// utilization of the paths they originate (period T = the network's max
// RTT), aggregate traffic onto always-on paths while the SLO holds,
// activate on-demand paths when utilization crosses the ISP's
// threshold, and fall back to failover paths on element failure.
//
// Traffic shifts are damped (a TeXCP-style stable controller): at most
// Gamma of the measured excess moves per decision, and consolidation
// back onto lower levels only happens below a low-water mark, which
// gives hysteresis and prevents persistent oscillation.
//
// The controller is built to manage 100k+ flows: probes are issued by
// a single timer wheel that batches all flows with the same probe RTT
// into one simulator event with one pooled utilization buffer (no
// per-flow closures or allocations), and failure reaction walks the
// simulator's link→flow inverted index, so its cost is proportional to
// the flows actually crossing the failed link.
package te

import (
	"math"

	"response/internal/metrics"
	"response/internal/sim"
	"response/internal/topo"
	"response/internal/trace"
)

// Opts parameterizes the controller.
type Opts struct {
	// Threshold is the ISP's link-utilization ceiling that triggers
	// on-demand activation (default 0.9).
	Threshold float64
	// Gamma is the damping factor: the fraction of the excess shifted
	// per decision (default 0.5).
	Gamma float64
	// Period is the probe period T in seconds; 0 derives it from the
	// topology's max RTT, the paper's recommendation.
	Period float64
	// Events, when non-nil, receives a JSONL trace of every controller
	// action (probe rounds, shifts, wakes, evacuations, retargets). Off
	// by default; when off the only cost is a nil check per action.
	Events *trace.EventWriter
	// Metrics, when non-nil, receives zero-alloc counter increments
	// mirroring the event stream (probe rounds, shifts, wake requests,
	// evacuations, retargets/handoffs/retires).
	Metrics *metrics.Runtime
}

// lowWater, as a fraction of Threshold, is the level a lower path must
// stay under after consolidation for traffic to move back down
// (hysteresis against oscillation).
const lowWater = 0.7

func (o *Opts) defaults(t *topo.Topology) {
	if o.Threshold == 0 {
		o.Threshold = 0.9
	}
	if o.Gamma == 0 {
		o.Gamma = 0.5
	}
	if o.Period == 0 {
		o.Period = t.MaxRTT()
		if o.Period == 0 {
			o.Period = 0.1
		}
	}
}

// Fingerprint accumulation: FNV-1a over every state-changing action,
// so two runs (or two allocator modes) can be compared for behavioral
// identity without recording the full journal.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

const (
	opShift = iota + 1
	opWake
	opEvacuate
	opRetarget
	opHandoff
	opRetire
)

// opNames indexes the trace op label by action code.
var opNames = [...]string{"", "shift", "wake", "evacuate", "retarget", "handoff", "retire"}

// Controller drives share decisions for the flows it manages.
type Controller struct {
	s    *sim.Simulator
	opts Opts

	flows []*sim.Flow
	slot  map[int]int // flow ID -> index into flows

	// pendingEvac holds, per managed flow, a bitmask of levels with an
	// evacuation in flight (wake requested, shift not yet applied), so
	// the failure handler and the probe backstop cannot double-book
	// the same move.
	pendingEvac []uint32
	// pendingEvacs counts set pendingEvac bits: evacuation closures
	// capture slot indices, so the slot table must not compact while
	// any are outstanding.
	pendingEvacs int
	// deadManaged counts retired flows still occupying slots; once
	// they outnumber live ones (and nothing in flight pins the slot
	// layout) the slot table is compacted, so sustained swap churn
	// keeps per-round walks and memory O(live flows).
	deadManaged int

	wheel probeWheel

	fp uint64 // running FNV-1a action fingerprint

	// Decisions counts control actions taken (for the overhead bench).
	Decisions int
	// Shifts counts share movements actually applied.
	Shifts int
	// Wakes counts wake-ups requested.
	Wakes int
	// Retargets counts table hot-swaps begun (Retarget calls).
	Retargets int
}

// NewController builds a controller over a simulator.
func NewController(s *sim.Simulator, opts Opts) *Controller {
	opts.defaults(s.T)
	c := &Controller{s: s, opts: opts, slot: make(map[int]int), fp: fnvOffset}
	c.wheel.gran = opts.Period / 8
	return c
}

// Period returns the effective probe period T.
func (c *Controller) Period() float64 { return c.opts.Period }

// Fingerprint returns the FNV-1a hash of the action sequence so far —
// shifts, wakes, evacuations, and the retarget/handoff/retire steps of
// table hot-swaps: a compact behavioral fingerprint of the run.
func (c *Controller) Fingerprint() uint64 { return c.fp }

// record folds one action into the behavioral fingerprint. frac is
// quantized to nanoshares so the incremental and full-allocation
// reference modes fingerprint identically.
func (c *Controller) record(op int, flow, from, to int, frac float64) {
	c.recordLink(op, flow, from, to, -1, frac)
}

// recordLink is record with a causing link attached to the emitted
// event (failure evacuations name the link that died). The link is
// deliberately NOT folded into the behavioral fingerprint — the
// fingerprint's five-word schema is pinned by cross-mode identity
// tests — it only enriches the JSONL trace for the trace store's
// event→link incidence.
func (c *Controller) recordLink(op int, flow, from, to, link int, frac float64) {
	h := c.fp
	for _, x := range [5]uint64{
		uint64(op), uint64(flow), uint64(from + 1), uint64(to + 1),
		uint64(int64(math.Round(frac * 1e9))),
	} {
		h ^= x
		h *= fnvPrime
	}
	c.fp = h
	c.opts.Events.EmitFlowLink(c.s.Now(), "te", opNames[op], flow, from, to, link, frac)
	if m := c.opts.Metrics; m != nil {
		switch op {
		case opShift:
			m.Shifts.Inc()
		case opWake:
			m.WakeRequests.Inc()
		case opEvacuate:
			m.Evacuations.Inc()
		case opRetarget:
			m.Retargets.Inc()
		case opHandoff:
			m.Handoffs.Inc()
		case opRetire:
			m.Retires.Inc()
		}
	}
}

// Manage registers a flow with the controller. The flow's Paths must be
// ordered by level: always-on first, failover last. Flows may be added
// before or after Start.
func (c *Controller) Manage(f *sim.Flow) {
	slot := len(c.flows)
	c.flows = append(c.flows, f)
	c.slot[f.ID] = slot
	c.pendingEvac = append(c.pendingEvac, 0)
	var rtt float64
	for _, p := range f.Paths {
		if r := 2 * p.Latency(c.s.T); r > rtt {
			rtt = r
		}
	}
	c.wheel.add(slot, rtt, len(f.Paths))
}

// Start begins periodic probing at the current simulation time and
// registers the failure handler.
func (c *Controller) Start() {
	c.s.OnLinkFail(c.onFailure)
	var tick func()
	tick = func() {
		c.probeAll()
		c.s.After(c.opts.Period, tick)
	}
	c.s.After(0, tick)
}

// DecideOnce runs one probe-collect-decide cycle for a flow
// synchronously, bypassing the probe RTT. It exists for overhead
// measurement (the paper reports the agent costs 2–3 % of a router's
// per-packet budget, §5.3).
func (c *Controller) DecideOnce(f *sim.Flow) {
	utils := c.wheel.scratch(len(f.Paths))
	for i, p := range f.Paths {
		utils[i] = c.s.PathUtil(p)
	}
	c.decide(f, utils)
}

// probeAll snapshots the path utilizations of every managed flow and
// delivers them to the decision logic after each flow's probe RTT.
// Flows sharing an RTT share one wheel slot: one pooled buffer, one
// scheduled event — not a closure and a fresh slice per flow.
func (c *Controller) probeAll() {
	// Retired-slot majority and nothing pinning the layout (no
	// snapshot between grab and release, no evacuation closure holding
	// a slot index): compact the slot table.
	if c.deadManaged > len(c.flows)-c.deadManaged &&
		c.pendingEvacs == 0 && c.wheel.inFlight() == 0 {
		c.compactFlows()
	}
	if c.opts.Events != nil {
		probed := 0
		for gi := range c.wheel.groups {
			probed += len(c.wheel.groups[gi].slots)
		}
		c.opts.Events.Emit(c.s.Now(), "te", "probe", -1, -1, -1, float64(probed))
	}
	if m := c.opts.Metrics; m != nil {
		m.ProbeRounds.Inc()
	}
	for gi := range c.wheel.groups {
		g := &c.wheel.groups[gi]
		if g.inFlight == 0 {
			// Quiet window: drop slots of removed flows so sustained
			// churn keeps probe rounds O(live flows).
			g.compact(
				func(slot int) bool { return c.flows[slot].Removed() },
				func(slot int) int { return len(c.flows[slot].Paths) },
			)
		}
		n := len(g.slots)
		if n == 0 {
			continue
		}
		buf := g.grab()
		off := 0
		for _, slot := range g.slots {
			f := c.flows[slot]
			if !f.Removed() { // removed mid-flight: slot skipped at delivery
				for i, p := range f.Paths {
					buf[off+i] = c.s.PathUtil(p)
				}
			}
			off += len(f.Paths)
		}
		// Feedback arrives one probed-path RTT later, as a real probe
		// packet's would.
		c.s.After(g.rtt, func() { c.deliver(gi, n, buf) })
	}
}

// deliver runs the decision logic for the first n flows of a wheel
// group against the utilizations snapshotted at probe time, then
// returns the buffer to the group's pool. n is pinned at probe time so
// flows managed mid-flight keep the snapshot layout intact.
func (c *Controller) deliver(gi, n int, buf []float64) {
	g := &c.wheel.groups[gi]
	off := 0
	for k := 0; k < n; k++ {
		f := c.flows[g.slots[k]]
		m := len(f.Paths)
		if !f.Removed() {
			c.decide(f, buf[off:off+m])
		}
		off += m
	}
	g.release(buf)
}

// decide applies the damped shifting policy for one flow given probed
// per-level utilizations.
func (c *Controller) decide(f *sim.Flow, utils []float64) {
	c.Decisions++
	primary := c.primaryLevel(f)
	if primary < 0 {
		return
	}
	th := c.opts.Threshold

	// Failed primary: evacuate entirely (normally the failure handler
	// already did this; probes are the backstop).
	if c.s.PathPhase(f.Paths[primary]) == sim.LinkFailed {
		c.evacuate(f, primary, -1)
		return
	}

	if utils[primary] > th {
		// Overloaded: push a damped fraction of the excess up-level.
		next := c.nextUsable(f, primary)
		if next < 0 {
			return
		}
		excess := (utils[primary] - th) / math.Max(utils[primary], 1e-9)
		frac := c.opts.Gamma * excess * f.ShareOf(primary)
		if frac <= 1e-6 {
			return
		}
		c.shiftWhenReady(f, primary, next, frac)
		return
	}

	// Headroom: consolidate share from higher levels back down so
	// their elements can sleep. movableRate budgets the whole pass:
	// everything moved down here raises the primary's bottleneck by at
	// most movableRate/bottleneck, so its post-move utilization
	// provably stays under Threshold×lowWater.
	room := th*lowWater - utils[primary]
	if room <= 0 {
		return
	}
	// Nothing below changes link phases, so check the primary's
	// forwarding state once, not per level.
	if c.s.PathPhase(f.Paths[primary]) != sim.LinkActive {
		return
	}
	bottleneck := f.Paths[primary].Bottleneck(c.s.T)
	movableRate := room * bottleneck
	for lvl := len(f.Paths) - 1; lvl > primary; lvl-- {
		if movableRate <= 1e-12 {
			break // budget spent: nothing below can move either
		}
		sh := f.ShareOf(lvl)
		if sh <= 1e-6 {
			continue
		}
		maxShare := movableRate / math.Max(f.Demand, 1e-9)
		frac := math.Min(sh, c.opts.Gamma*maxShare)
		if frac > maxShare {
			frac = maxShare // keep the lowWater promise even if Gamma > 1
		}
		if frac <= 1e-6 {
			continue
		}
		c.s.ShiftShare(f, lvl, primary, frac)
		c.Shifts++
		c.record(opShift, f.ID, lvl, primary, frac)
		movableRate -= frac * f.Demand
	}
}

// primaryLevel is the lowest level holding any share (the path the
// agent currently aggregates onto).
func (c *Controller) primaryLevel(f *sim.Flow) int {
	for i := range f.Paths {
		if f.ShareOf(i) > 1e-9 {
			return i
		}
	}
	// All share drained (e.g. after failure churn): restart at 0.
	if len(f.Paths) > 0 {
		return 0
	}
	return -1
}

// nextUsable finds the next higher level whose path is not failed.
func (c *Controller) nextUsable(f *sim.Flow, from int) int {
	for i := from + 1; i < len(f.Paths); i++ {
		if f.Paths[i].Empty() {
			continue
		}
		if c.s.PathPhase(f.Paths[i]) != sim.LinkFailed {
			return i
		}
	}
	return -1
}

// shiftWhenReady wakes the target path if needed and applies the share
// shift once it can forward; meanwhile traffic stays where it is (the
// paper's reserve-capacity-on-always-on behaviour, §4.5).
func (c *Controller) shiftWhenReady(f *sim.Flow, from, to int, frac float64) {
	p := f.Paths[to]
	switch c.s.PathPhase(p) {
	case sim.LinkActive:
		c.s.ShiftShare(f, from, to, frac)
		c.Shifts++
		c.record(opShift, f.ID, from, to, frac)
	case sim.LinkSleeping, sim.LinkWaking:
		ready := c.s.RequestWake(p)
		c.Wakes++
		c.record(opWake, f.ID, from, to, frac)
		c.s.Schedule(ready, func() {
			if c.s.PathPhase(p) == sim.LinkActive && !f.Removed() {
				c.s.ShiftShare(f, from, to, frac)
				c.Shifts++
				c.record(opShift, f.ID, from, to, frac)
			}
		})
	case sim.LinkFailed:
		// Target died since the decision; drop the shift.
	}
}

// onFailure reacts to a link failure notification (already delayed by
// detection + propagation). The simulator's inverted index yields
// exactly the (flow, level) pairs whose paths cross the failed link,
// so reaction cost is O(affected flows), not O(all flows × paths).
func (c *Controller) onFailure(_ float64, l topo.LinkID) {
	c.s.FlowsOnLink(l, func(f *sim.Flow, lvl int) {
		if _, managed := c.slot[f.ID]; !managed {
			return
		}
		if f.ShareOf(lvl) <= 1e-9 {
			return
		}
		c.evacuate(f, lvl, int(l))
	})
}

// evacuate moves all share off the given (failed) level. A per-flow
// pending mark guards the wake-then-shift window: the failure handler
// and the probe backstop may both observe the failed level before the
// first evacuation's wake completes, and only one move may be booked.
// cause is the failed link that triggered the evacuation (tagged onto
// the trace events), or -1 from the probe backstop, which only knows
// the path died.
func (c *Controller) evacuate(f *sim.Flow, lvl int, cause int) {
	slot, managed := c.slot[f.ID]
	if !managed {
		return
	}
	bit := uint32(1) << uint(lvl)
	if c.pendingEvac[slot]&bit != 0 {
		return // evacuation already in flight for this level
	}
	sh := f.ShareOf(lvl)
	if sh <= 1e-9 {
		return
	}
	// Prefer the failover (last) level, then any other surviving one.
	target := -1
	for i := len(f.Paths) - 1; i >= 0; i-- {
		if i == lvl || f.Paths[i].Empty() {
			continue
		}
		if c.s.PathPhase(f.Paths[i]) != sim.LinkFailed {
			target = i
			break
		}
	}
	if target < 0 {
		return // nowhere to go
	}
	c.Decisions++
	p := f.Paths[target]
	if c.s.PathPhase(p) == sim.LinkActive {
		c.s.ShiftShare(f, lvl, target, sh)
		c.Shifts++
		c.recordLink(opEvacuate, f.ID, lvl, target, cause, sh)
		return
	}
	c.pendingEvac[slot] |= bit
	c.pendingEvacs++
	ready := c.s.RequestWake(p)
	c.Wakes++
	c.recordLink(opWake, f.ID, lvl, target, cause, sh)
	c.s.Schedule(ready, func() {
		c.pendingEvac[slot] &^= bit // allow the backstop to retry if this move dies
		c.pendingEvacs--
		if c.s.PathPhase(p) == sim.LinkActive && !f.Removed() {
			moved := f.ShareOf(lvl)
			c.s.ShiftShare(f, lvl, target, moved)
			c.Shifts++
			c.recordLink(opEvacuate, f.ID, lvl, target, cause, moved)
		}
	})
}

// compactFlows drops removed flows' slots from c.flows, pendingEvac,
// the slot map and every wheel group, preserving the relative order of
// live slots — probe order over live flows (part of the runtime's
// deterministic behavior) is unchanged. Callers must ensure no
// snapshot buffer or evacuation closure holds a slot index.
func (c *Controller) compactFlows() {
	remap := make([]int, len(c.flows))
	kept := 0
	for i, f := range c.flows {
		if f.Removed() {
			remap[i] = -1
			continue
		}
		remap[i] = kept
		c.flows[kept] = f
		c.pendingEvac[kept] = c.pendingEvac[i]
		kept++
	}
	c.flows = c.flows[:kept]
	c.pendingEvac = c.pendingEvac[:kept]
	for id, s := range c.slot {
		if ns := remap[s]; ns >= 0 {
			c.slot[id] = ns
		} else {
			delete(c.slot, id) // app-removed flow never retired via Retarget
		}
	}
	c.wheel.remapSlots(remap, func(slot int) int { return len(c.flows[slot].Paths) })
	c.deadManaged = 0
}

// EachManaged calls yield for every live managed flow, in Manage order.
// Flows already retired (or removed by the application) are skipped.
func (c *Controller) EachManaged(yield func(f *sim.Flow)) {
	for _, f := range c.flows {
		if !f.Removed() {
			yield(f)
		}
	}
}

// RetargetOpts parameterizes one flow's table hot-swap.
type RetargetOpts struct {
	// DrainGrace is how long after the demand handoff the drained old
	// flow is kept installed before removal (its subflows idle at zero
	// rate through the grace, so in-flight probe snapshots and failure
	// walks still resolve it). Zero retires in the same event round.
	DrainGrace float64
	// OnHandoff, when non-nil, runs at the instant demand moves from
	// the old to the new flow — the external-reference switch-over
	// point (callers holding the old *Flow re-point to the new one).
	OnHandoff func(old, new *sim.Flow)
	// OnRetire, when non-nil, runs after the old flow has drained and
	// been removed; lifecycle managers count these to detect swap
	// completion.
	OnRetire func(old, new *sim.Flow)
}

// Retarget hot-swaps one managed flow onto replacement tables with
// zero traffic disruption: a fresh flow is installed over the new path
// levels as new subflows (zero demand — it forwards nothing yet), the
// new always-on path is woken if asleep, and once it can forward the
// offered demand moves from the old flow to the new one in a single
// allocation round — traffic keeps flowing over the old tables for the
// whole wake window, the paper's reserve-capacity behavior applied to
// table replacement. The drained old flow is retired after
// opts.DrainGrace via the simulator's removal machinery.
//
// The returned flow is the replacement; the old flow stays valid (and
// carries all traffic) until the handoff. Retarget, handoff and retire
// are folded into the controller's action fingerprint (with the
// replacement flow's ID in the `to` slot), so swap sequences are as
// pinnable as shift sequences.
//
// Cost note: the controller compacts its own slot table under churn,
// but the simulator retains a retired flow's Flow struct and flat
// subflow slots for the simulation's lifetime (sim IDs are stable; see
// RemoveFlow) — a few dozen bytes per retired level per swap.
func (c *Controller) Retarget(f *sim.Flow, paths []topo.Path, opts RetargetOpts) (*sim.Flow, error) {
	nf, err := c.s.AddFlow(f.O, f.D, 0, paths)
	if err != nil {
		return nil, err
	}
	c.Manage(nf)
	c.Retargets++
	c.record(opRetarget, f.ID, 0, nf.ID, 0)
	retire := func() {
		c.s.RemoveFlow(f)
		delete(c.slot, f.ID)
		c.deadManaged++
		c.record(opRetire, f.ID, 0, nf.ID, 0)
		if opts.OnRetire != nil {
			opts.OnRetire(f, nf)
		}
	}
	// Wake the new always-on path; a failed one is handed off
	// immediately (the normal failure machinery then moves the new
	// flow up its levels, exactly as for a fresh flow).
	ready := c.s.Now()
	if c.s.PathPhase(paths[0]) != sim.LinkFailed {
		ready = c.s.RequestWake(paths[0])
	}
	c.s.Schedule(ready, func() {
		if f.Removed() {
			// The application withdrew the old flow mid-swap: there is
			// no demand to hand over; retire bookkeeping still runs so
			// swap completion counts stay balanced.
			c.deadManaged++
			c.record(opHandoff, f.ID, 0, nf.ID, 0)
			if opts.OnRetire != nil {
				opts.OnRetire(f, nf)
			}
			return
		}
		d := f.Demand
		c.s.SetDemand(nf, d)
		c.s.SetDemand(f, 0)
		// Record the demand scaled down so record's nanoshare
		// quantization folds whole bits/s: d itself can exceed 9.2e9,
		// and d*1e9 would overflow int64 (an architecture-dependent
		// conversion, which would unpin fingerprints across machines).
		c.record(opHandoff, f.ID, 0, nf.ID, d*1e-9)
		if opts.OnHandoff != nil {
			opts.OnHandoff(f, nf)
		}
		if opts.DrainGrace <= 0 {
			retire()
			return
		}
		c.s.After(opts.DrainGrace, retire)
	})
	return nf, nil
}
