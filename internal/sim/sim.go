package sim

import (
	"container/heap"
	"fmt"
	"math"

	"response/internal/metrics"
	"response/internal/power"
	"response/internal/topo"
	"response/internal/trace"
)

// LinkPhase is the power state of a physical link.
type LinkPhase uint8

// Link power states. Waking links are powered (they draw power while
// coming up) but do not forward traffic until the wake completes.
const (
	LinkActive LinkPhase = iota
	LinkSleeping
	LinkWaking
	LinkFailed
)

// String names the phase.
func (p LinkPhase) String() string {
	switch p {
	case LinkActive:
		return "active"
	case LinkSleeping:
		return "sleeping"
	case LinkWaking:
		return "waking"
	case LinkFailed:
		return "failed"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Opts parameterizes a simulation.
type Opts struct {
	// WakeUpDelay is the time for a sleeping link to become active
	// (10 ms in the Click experiment, 5 s in the ns-2 experiments).
	WakeUpDelay float64
	// SleepAfterIdle is how long a link must carry zero traffic
	// before it sleeps (default 100 ms).
	SleepAfterIdle float64
	// FailureDetect is the local failure detection time (50 ms, §5.3).
	FailureDetect float64
	// FailurePropagate is the time for failure news to reach sources
	// (50 ms ≈ 3 hops of 16.67 ms, §5.3).
	FailurePropagate float64
	// Model meters power when non-nil.
	Model power.Model
	// PinnedOn elements never sleep (the always-on set).
	PinnedOn *topo.ActiveSet
	// FullAllocate switches the rate allocator into the global
	// reference mode: every settle re-solves max-min fairness for the
	// entire network instead of only the dirty component. Much slower
	// at scale; kept (like mcf's FullReroute) so tests can cross-check
	// the incremental allocator against the textbook solve.
	FullAllocate bool
	// Events, when non-nil, receives link phase transitions (span
	// "sim": fail/repair/sleep/wake) as JSONL events — the link-actor
	// half of the flight recorder; fail events carry the link's
	// utilization at failure time as val, the seed of the trace
	// store's critical-path scoring. Nil-safe, like all EventWriter
	// sinks.
	Events *trace.EventWriter
	// Metrics, when non-nil, receives zero-alloc counter increments
	// for link transitions and allocator passes.
	Metrics *metrics.Runtime
}

func (o *Opts) defaults() {
	if o.WakeUpDelay == 0 {
		o.WakeUpDelay = 0.01
	}
	if o.SleepAfterIdle == 0 {
		o.SleepAfterIdle = 0.1
	}
	if o.FailureDetect == 0 {
		o.FailureDetect = 0.05
	}
	if o.FailurePropagate == 0 {
		o.FailurePropagate = 0.05
	}
}

// Simulator runs the event loop over a topology.
//
// Internally it maintains a subflow universe — one entry per installed
// (flow, path level) — and a link→subflow inverted index, so that rate
// reallocation, failure reaction and sleep/wake bookkeeping all cost
// O(affected flows) rather than O(all flows × paths) per event.
type Simulator struct {
	T    *topo.Topology
	opts Opts

	now    float64
	seq    uint64
	events eventHeap

	phase    []LinkPhase // per link
	lastBusy []float64   // per link: last time it carried traffic
	wakeAt   []float64   // per link: completion time of an in-flight wake (0 = none)
	sleepChk []float64   // per link: time of the pending sleep check (0 = none)
	arcLoad  []float64   // per arc: carried rate, maintained by allocate

	flows []*Flow

	// Subflow universe: one slot per (flow, level), assigned at AddFlow
	// and stable for the simulation's lifetime.
	subFlow     []int32      // owner flow ID
	subLevel    []int32      // path level within the owner
	subRate     []float64    // last allocated rate
	subBlocked  []int32      // #arcs on the path whose link is not forwarding
	subArcStart []int32      // CSR offsets into subArcs (len = #subflows+1)
	subArcs     []topo.ArcID // concatenated path arcs per subflow

	arcSubs [][]int32 // inverted index: arc -> subflow IDs crossing it

	// Index occupancy: arc references held by live vs. removed flows.
	// When dead references outnumber live ones the index is compacted,
	// so long flow churn keeps walks and memory O(live), amortized.
	indexLive int
	indexDead int

	// Dirty frontier: flows whose offered rates or path availability
	// changed since the last allocate.
	dirtyFlows []int32
	flowDirty  []bool
	dirty      bool

	ws allocWorkspace

	started bool // initial sleep checks booked

	meter *power.Meter

	failHandlers []func(now float64, l topo.LinkID)
}

// Sample is one (time, value) observation.
type Sample struct {
	Time  float64
	Value float64
}

// New builds a simulator with every link initially active.
func New(t *topo.Topology, opts Opts) *Simulator {
	opts.defaults()
	s := &Simulator{
		T:           t,
		opts:        opts,
		phase:       make([]LinkPhase, t.NumLinks()),
		lastBusy:    make([]float64, t.NumLinks()),
		wakeAt:      make([]float64, t.NumLinks()),
		sleepChk:    make([]float64, t.NumLinks()),
		arcLoad:     make([]float64, t.NumArcs()),
		arcSubs:     make([][]int32, t.NumArcs()),
		subArcStart: []int32{0},
	}
	s.ws.init(t)
	if opts.Model != nil {
		s.meter = power.NewMeter(t, opts.Model, s.activeSet())
	}
	return s
}

// Now returns the current simulation time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Schedule runs fn at the given absolute time (>= now).
func (s *Simulator) Schedule(at float64, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.events, event{at: at, seq: s.seq, fn: fn})
}

// After runs fn delay seconds from now.
func (s *Simulator) After(delay float64, fn func()) { s.Schedule(s.now+delay, fn) }

// Run processes events until the given time, then advances the clock
// to it.
func (s *Simulator) Run(until float64) {
	// Mutations made between Run calls (AddFlow, SetDemand, ...) must
	// take effect at the current time, not after the clock jumps.
	s.settle()
	for len(s.events) > 0 && s.events[0].at <= until {
		e := heap.Pop(&s.events).(event)
		s.now = e.at
		e.fn()
		// Coalesce: apply allocation after all same-time events.
		if len(s.events) == 0 || s.events[0].at > s.now {
			s.settle()
		}
	}
	s.now = until
	s.settle()
}

// settle recomputes rates if dirty and updates the power meter.
func (s *Simulator) settle() {
	if !s.started {
		s.started = true
		s.initialSleepChecks()
	}
	if s.dirty {
		s.allocate()
		s.dirty = false
	}
	if s.meter != nil {
		s.meter.Observe(s.now, s.activeSet())
	}
}

// markFlowDirty adds a flow to the reallocation frontier.
func (s *Simulator) markFlowDirty(fid int32) {
	if !s.flowDirty[fid] {
		s.flowDirty[fid] = true
		s.dirtyFlows = append(s.dirtyFlows, fid)
	}
	s.dirty = true
}

// LinkCarried returns the traffic (both directions summed per arc) on
// the link's arcs in bits/s.
func (s *Simulator) LinkCarried(l topo.LinkID) float64 {
	lk := s.T.Link(l)
	return s.arcLoad[lk.AB] + s.arcLoad[lk.BA]
}

// ArcUtil returns carried/capacity for one arc direction.
func (s *Simulator) ArcUtil(a topo.ArcID) float64 {
	return s.arcLoad[a] / s.T.Arc(a).Capacity
}

// PathUtil returns the maximum arc utilization along a path.
func (s *Simulator) PathUtil(p topo.Path) float64 {
	var mx float64
	for _, aid := range p.Arcs {
		if u := s.ArcUtil(aid); u > mx {
			mx = u
		}
	}
	return mx
}

// PathPhase summarizes a path: Failed if any link failed, else
// Sleeping if any link sleeps, else Waking if any link wakes, else
// Active.
func (s *Simulator) PathPhase(p topo.Path) LinkPhase {
	worst := LinkActive
	for _, aid := range p.Arcs {
		switch s.phase[s.T.Arc(aid).Link] {
		case LinkFailed:
			return LinkFailed
		case LinkSleeping:
			worst = LinkSleeping
		case LinkWaking:
			if worst == LinkActive {
				worst = LinkWaking
			}
		}
	}
	return worst
}

// setLinkPhase moves a link between phases, maintaining the blocked
// counters of every subflow whose path crosses it and dirtying the
// flows whose forwarding actually changes — the O(affected) core of
// failure and sleep/wake reaction.
func (s *Simulator) setLinkPhase(l topo.LinkID, p LinkPhase) {
	old := s.phase[l]
	if old == p {
		return
	}
	s.phase[l] = p
	if (old == LinkActive) == (p == LinkActive) {
		return // forwarding unchanged (e.g. sleeping -> waking)
	}
	delta := int32(1)
	if p == LinkActive {
		delta = -1
	}
	lk := s.T.Link(l)
	for _, aid := range [2]topo.ArcID{lk.AB, lk.BA} {
		for _, sf := range s.arcSubs[aid] {
			s.subBlocked[sf] += delta
			f := s.flows[s.subFlow[sf]]
			// Only flows that carry traffic here or offer traffic to
			// this path need a reallocation.
			if s.subRate[sf] > 0 ||
				(!f.removed && f.Demand > 0 && f.Share[s.subLevel[sf]] > 0) {
				s.markFlowDirty(s.subFlow[sf])
			}
		}
	}
}

// RequestWake starts waking every sleeping link on p and returns the
// time at which the whole path will be forwarding (now if already
// active). Failed links cannot be woken.
func (s *Simulator) RequestWake(p topo.Path) float64 {
	ready := s.now
	for _, aid := range p.Arcs {
		if done := s.wakeLink(s.T.Arc(aid).Link); done > ready {
			ready = done
		}
	}
	return ready
}

// wakeLink starts waking one link if it sleeps and returns the time it
// will forward (now if it already does, or the in-flight wake deadline).
func (s *Simulator) wakeLink(l topo.LinkID) float64 {
	switch s.phase[l] {
	case LinkSleeping:
		s.setLinkPhase(l, LinkWaking)
		done := s.now + s.opts.WakeUpDelay
		s.wakeAt[l] = done
		id := l
		s.Schedule(done, func() { s.completeWake(id) })
		s.opts.Events.EmitLink(s.now, "sim", "wake", int(l), s.opts.WakeUpDelay)
		if m := s.opts.Metrics; m != nil {
			m.LinkWakes.Inc()
			m.WakeLatencySec.Add(s.opts.WakeUpDelay)
		}
		return done
	case LinkWaking:
		// A wake is already in flight: it completes at the recorded
		// deadline, not a full WakeUpDelay from now.
		return s.wakeAt[l]
	}
	return s.now
}

func (s *Simulator) completeWake(l topo.LinkID) {
	if s.phase[l] != LinkWaking {
		return
	}
	s.wakeAt[l] = 0
	s.lastBusy[l] = s.now
	s.setLinkPhase(l, LinkActive)
	// If no traffic arrives the link must be able to doze off again.
	s.scheduleSleepCheck(l, s.now+s.opts.SleepAfterIdle)
}

// FailLink fails a link at the current time. Registered failure
// handlers hear about it after detection + propagation delay.
func (s *Simulator) FailLink(l topo.LinkID) {
	if s.phase[l] == LinkFailed {
		return
	}
	if s.opts.Events != nil || s.opts.Metrics != nil {
		// Utilization at the instant of failure — the seed weight of
		// the trace store's energy-critical-path scoring.
		lk := s.T.Link(l)
		util := s.ArcUtil(lk.AB)
		if v := s.ArcUtil(lk.BA); v > util {
			util = v
		}
		s.opts.Events.EmitLink(s.now, "sim", "fail", int(l), util)
		if m := s.opts.Metrics; m != nil {
			m.LinkFailures.Inc()
		}
	}
	s.wakeAt[l] = 0
	s.setLinkPhase(l, LinkFailed)
	s.markDirtyPower()
	delay := s.opts.FailureDetect + s.opts.FailurePropagate
	id := l
	for _, h := range s.failHandlers {
		fn := h
		s.After(delay, func() { fn(s.now, id) })
	}
}

// RepairLink returns a failed link to service (active immediately).
func (s *Simulator) RepairLink(l topo.LinkID) {
	if s.phase[l] != LinkFailed {
		return
	}
	s.lastBusy[l] = s.now
	s.setLinkPhase(l, LinkActive)
	s.markDirtyPower()
	s.scheduleSleepCheck(l, s.now+s.opts.SleepAfterIdle)
	s.opts.Events.EmitLink(s.now, "sim", "repair", int(l), 0)
	if m := s.opts.Metrics; m != nil {
		m.LinkRepairs.Inc()
	}
}

// OnLinkFail registers a handler invoked (after detection and
// propagation delays) when a link fails.
func (s *Simulator) OnLinkFail(fn func(now float64, l topo.LinkID)) {
	s.failHandlers = append(s.failHandlers, fn)
}

// FlowsOnLink calls yield for every installed (flow, level) whose path
// crosses the given link, via the inverted index: O(paths over l), not
// O(all flows). A flow appears once per level that uses the link;
// removed flows are skipped.
func (s *Simulator) FlowsOnLink(l topo.LinkID, yield func(f *Flow, level int)) {
	lk := s.T.Link(l)
	for _, aid := range [2]topo.ArcID{lk.AB, lk.BA} {
		for _, sf := range s.arcSubs[aid] {
			f := s.flows[s.subFlow[sf]]
			if f.removed {
				continue
			}
			yield(f, int(s.subLevel[sf]))
		}
	}
}

// pinned reports whether a link belongs to the never-sleep set.
func (s *Simulator) pinned(l topo.LinkID) bool {
	return s.opts.PinnedOn != nil && s.opts.PinnedOn.Link[l]
}

// SetPinnedOn replaces the never-sleep element set while the simulation
// runs — the hot-swap path for a new plan's always-on set. Newly pinned
// links are woken if asleep (an always-on path must be able to forward
// before traffic is handed to it); links leaving the pinned set become
// eligible to sleep again and get an idle check booked. Cost is
// O(links), independent of the flow universe, and allocation-free.
func (s *Simulator) SetPinnedOn(a *topo.ActiveSet) {
	old := s.opts.PinnedOn
	s.opts.PinnedOn = a
	for _, l := range s.T.Links() {
		was := old != nil && old.Link[l.ID]
		now := a != nil && a.Link[l.ID]
		if was == now {
			continue
		}
		if now {
			s.wakeLink(l.ID)
		} else if s.phase[l.ID] == LinkActive && s.LinkCarried(l.ID) <= 1e-9 {
			s.scheduleSleepCheck(l.ID, s.lastBusy[l.ID]+s.opts.SleepAfterIdle)
		}
	}
}

// initialSleepChecks books the first idle check for every link; after
// this, checks are driven purely by busy->idle transitions and wake or
// repair completions, so steady state costs nothing per settle.
func (s *Simulator) initialSleepChecks() {
	for _, l := range s.T.Links() {
		if s.phase[l.ID] != LinkActive || s.pinned(l.ID) {
			continue
		}
		if s.LinkCarried(l.ID) <= 1e-9 {
			s.scheduleSleepCheck(l.ID, s.lastBusy[l.ID]+s.opts.SleepAfterIdle)
		}
	}
}

// scheduleSleepCheck books an idle check for a link, keeping at most
// one outstanding check per link.
func (s *Simulator) scheduleSleepCheck(l topo.LinkID, at float64) {
	if s.pinned(l) {
		return
	}
	if s.sleepChk[l] > s.now {
		return // one already pending; it reschedules itself if needed
	}
	if at < s.now {
		at = s.now
	}
	s.sleepChk[l] = at
	id := l
	s.Schedule(at, func() { s.sleepCheck(id) })
}

// sleepCheck puts an idle link to sleep once its idle timer expired,
// or re-books itself if the link was busy in between.
func (s *Simulator) sleepCheck(l topo.LinkID) {
	s.sleepChk[l] = 0
	if s.phase[l] != LinkActive || s.pinned(l) {
		return
	}
	if s.LinkCarried(l) > 1e-9 {
		// Busy: the next busy->idle transition books a fresh check.
		return
	}
	if s.now-s.lastBusy[l] >= s.opts.SleepAfterIdle-1e-9 {
		s.setLinkPhase(l, LinkSleeping)
		s.markDirtyPower()
		s.opts.Events.EmitLink(s.now, "sim", "sleep", int(l), s.now-s.lastBusy[l])
		if m := s.opts.Metrics; m != nil {
			m.LinkSleeps.Inc()
		}
	} else {
		// Went busy and idle again since this check was booked.
		s.scheduleSleepCheck(l, s.lastBusy[l]+s.opts.SleepAfterIdle)
	}
}

// markDirtyPower updates the meter without a rate recompute (phase
// changes that do not affect forwarding).
func (s *Simulator) markDirtyPower() {
	if s.meter != nil {
		s.meter.Observe(s.now, s.activeSet())
	}
}

// activeSet derives the powered element set from link phases: a link
// draws power unless sleeping or failed; a router draws power while
// any incident link does (constraint 3 of the model).
func (s *Simulator) activeSet() *topo.ActiveSet {
	a := topo.AllOff(s.T)
	for _, l := range s.T.Links() {
		on := s.phase[l.ID] == LinkActive || s.phase[l.ID] == LinkWaking
		a.Link[l.ID] = on
		if on {
			if s.T.Node(l.A).Kind != topo.KindHost {
				a.Router[l.A] = true
			}
			if s.T.Node(l.B).Kind != topo.KindHost {
				a.Router[l.B] = true
			}
		}
	}
	return a
}

// Meter returns the power meter (nil when no model was configured).
func (s *Simulator) Meter() *power.Meter { return s.meter }

// PowerPct returns the current power as a percentage of all-on, or 0
// with no meter.
func (s *Simulator) PowerPct() float64 {
	if s.meter == nil {
		return 0
	}
	if n := len(s.meter.Series); n > 0 {
		return s.meter.Series[n-1].PctOfFull
	}
	return 0
}

// SampleEvery runs fn every period seconds, starting now, until the
// horizon until — the one sampling hook: callers record what they
// observe (flow rates, bytes, power) themselves.
func (s *Simulator) SampleEvery(period, until float64, fn func(now float64)) {
	var tick func()
	tick = func() {
		fn(s.now)
		if s.now+period <= until {
			s.After(period, tick)
		}
	}
	s.After(0, tick)
}

// StateFingerprint hashes the simulator's externally observable
// steady state — every arc's carried load quantized to 1 bit/s plus
// every link's phase — into one FNV-1a value. Unlike the controller's
// action fingerprint it is independent of flow identities and history,
// so a runtime that hot-swapped to a plan can be compared against one
// started fresh on it: once both settle, equal traffic placement means
// equal fingerprints.
func (s *Simulator) StateFingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	for _, load := range s.arcLoad {
		mix(uint64(int64(math.Round(load))))
	}
	for _, p := range s.phase {
		mix(uint64(p))
	}
	return h
}

// MaxArcUtil returns the current worst arc utilization.
func (s *Simulator) MaxArcUtil() float64 {
	var mx float64
	for _, a := range s.T.Arcs() {
		if u := s.ArcUtil(a.ID); u > mx {
			mx = u
		}
	}
	return mx
}

// OverloadedLinks returns, in LinkID order, every non-failed link
// whose worse arc utilization is at least minUtil — the candidate set
// for load-driven cascading failures (a correlated-failure model
// fails overloaded survivors of a cut with some chain probability).
func (s *Simulator) OverloadedLinks(minUtil float64) []topo.LinkID {
	var out []topo.LinkID
	for _, l := range s.T.Links() {
		if s.phase[l.ID] == LinkFailed {
			continue
		}
		if s.ArcUtil(l.AB) >= minUtil || s.ArcUtil(l.BA) >= minUtil {
			out = append(out, l.ID)
		}
	}
	return out
}
