// Package verify is the full-stack correctness harness of the module:
// an invariant checker that vets installed REsPoNse tables against the
// properties the paper claims (flow conservation per commodity,
// capacity feasibility, delay-bound compliance, always-on
// connectivity, power never above all-on), and a differential oracle
// that cross-checks every incremental engine against its from-scratch
// reference mode on arbitrary — typically topogen-generated —
// instances.
//
// The checker re-derives each property from the raw tables rather than
// trusting the library helpers that produced them, so a planner bug
// that corrupts its own bookkeeping still surfaces. A Report collects
// every violation instead of stopping at the first, which keeps corpus
// runs diagnosable.
package verify

import (
	"errors"
	"fmt"
	"strings"

	"response/internal/core"
	"response/internal/power"
	"response/internal/spf"
	"response/internal/topo"
	"response/internal/topogen"
	"response/internal/traffic"
)

// Opts parameterizes an invariant check.
type Opts struct {
	// Model prices elements for the power invariants (default
	// Cisco12000, the planner's default).
	Model power.Model
	// Beta, when > 0, additionally checks the REsPoNse-lat delay bound:
	// every always-on path must satisfy delay ≤ (1+Beta) × the
	// OSPF-InvCap path delay.
	Beta float64
	// TM, when non-nil, drives the capacity invariants: it is taken as
	// the demand shape, the checker finds the largest multiple of it
	// the installed tables can absorb (TableScale), and the placement
	// at that operating point must respect every arc capacity and the
	// ceiling exactly.
	TM *traffic.Matrix
	// NetScale, when > 0 alongside TM, is the largest multiple of TM
	// routable on the full network (mcf.MaxFeasibleScale); the tables
	// must then retain at least minShare of it — fixed precomputed
	// paths may not reach the multipath optimum, but they must never be
	// capacity-starved.
	NetScale float64
}

const (
	// checkMaxUtil is the utilization ceiling plans are checked under: the
	// planner's default, every arc usable to capacity.
	checkMaxUtil float64 = 1.0
	// minShare is the required TableScale/NetScale floor: the generated
	// corpus measures 0.13–1.0 across families, tori and large Waxman
	// meshes at the low end where one thin link on a fixed path caps
	// the global multiplier.
	minShare float64 = 0.1
)

// Violation is one invariant breach.
type Violation struct {
	// Invariant names the broken property ("flow-conservation",
	// "always-on-connectivity", "capacity", "delay-bound", "power").
	Invariant string
	// Detail locates the breach.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Report is the outcome of one check: the instance it ran on and every
// violation found.
type Report struct {
	Name       string
	Violations []Violation
	// TableScale is the largest multiple of Opts.TM the checked tables
	// absorbed without overload (0 when no TM was supplied). CheckTables
	// computes it for the capacity invariant; callers that also want the
	// share can read it here instead of re-running the bisection.
	TableScale float64
}

// Ok reports whether no invariant was violated.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Err returns nil when the report is clean, else one error summarizing
// every violation.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %s: %d violation(s)", r.Name, len(r.Violations))
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return errors.New(b.String())
}

func (r *Report) addf(invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Invariant: invariant,
		Detail:    fmt.Sprintf(format, args...),
	})
}

const eps = 1e-9

// CheckTables runs every table-level invariant against tb and returns
// the collected violations.
func CheckTables(t *topo.Topology, tb *core.Tables, opts Opts) *Report {
	if opts.Model == nil {
		opts.Model = power.Cisco12000{}
	}
	r := &Report{Name: t.Name}

	checkFlowConservation(t, tb, r)
	checkAlwaysOnConnectivity(t, tb, r)
	if opts.Beta > 0 {
		checkDelayBound(t, tb, opts.Beta, r)
	}
	checkPower(t, tb, opts, r)
	if opts.TM != nil {
		checkCapacity(t, tb, opts, r)
	}
	return r
}

// checkFlowConservation re-derives per-commodity flow conservation for
// every installed path from its raw arc sequence: at the origin net
// out-degree is +1, at the destination net in-degree is +1, every
// transit node is balanced, and no node is visited twice (the
// unsplittable-path form of constraint 2).
func checkFlowConservation(t *topo.Topology, tb *core.Tables, r *Report) {
	for _, k := range tb.PairKeys() {
		ps := tb.Pairs[k]
		for li, p := range ps.Levels() {
			if p.Empty() {
				if li == 0 {
					r.addf("flow-conservation", "pair %v has empty always-on path", k)
				}
				continue
			}
			net := map[topo.NodeID]int{}
			visited := map[topo.NodeID]int{}
			prev := topo.NodeID(-1)
			bad := false
			for hi, aid := range p.Arcs {
				if aid < 0 || int(aid) >= t.NumArcs() {
					r.addf("flow-conservation", "pair %v level %d: arc %d out of range", k, li, aid)
					bad = true
					break
				}
				a := t.Arc(aid)
				if hi == 0 {
					// Seed the origin: a path looping back through it
					// balances the net flows, so only the visit count
					// can catch the revisit.
					visited[a.From]++
				} else if a.From != prev {
					r.addf("flow-conservation", "pair %v level %d: discontinuity at hop %d", k, li, hi)
					bad = true
					break
				}
				net[a.From]++
				net[a.To]--
				visited[a.To]++
				prev = a.To
			}
			if bad {
				continue
			}
			for n, d := range net {
				want := 0
				if n == k[0] {
					want = 1
				} else if n == k[1] {
					want = -1
				}
				if d != want {
					r.addf("flow-conservation",
						"pair %v level %d: node %d net flow %+d, want %+d", k, li, n, d, want)
				}
			}
			for n, c := range visited {
				if c > 1 {
					r.addf("flow-conservation", "pair %v level %d: node %d visited %d times", k, li, n, c)
				}
			}
		}
	}
}

// checkAlwaysOnConnectivity asserts that the always-on set alone
// connects every planned pair: each pair's always-on path runs wholly
// over always-on elements, and the powered-on subgraph is mutually
// reachable.
func checkAlwaysOnConnectivity(t *topo.Topology, tb *core.Tables, r *Report) {
	if tb.AlwaysOnSet == nil {
		if len(tb.Pairs) > 0 {
			r.addf("always-on-connectivity", "tables have %d pairs but no always-on set", len(tb.Pairs))
		}
		return
	}
	for _, k := range tb.PairKeys() {
		ps := tb.Pairs[k]
		if ps.AlwaysOn.Empty() {
			continue // reported by flow-conservation
		}
		if !ps.AlwaysOn.ActiveUnder(t, tb.AlwaysOnSet) {
			r.addf("always-on-connectivity", "pair %v always-on path leaves the always-on set", k)
		}
	}
	if !t.ConnectedUnder(tb.AlwaysOnSet) {
		r.addf("always-on-connectivity", "always-on set does not connect all powered nodes")
	}
}

// checkDelayBound asserts the REsPoNse-lat constraint: every always-on
// path's propagation delay stays within (1+β) of the OSPF-InvCap
// reference path's.
func checkDelayBound(t *topo.Topology, tb *core.Tables, beta float64, r *Report) {
	opts := spf.Options{Weight: spf.InvCap()}
	trees := map[topo.NodeID]spf.Tree{}
	for _, k := range tb.PairKeys() {
		ps := tb.Pairs[k]
		if ps.AlwaysOn.Empty() {
			continue
		}
		tree, ok := trees[k[0]]
		if !ok {
			tree = spf.ShortestTree(t, k[0], opts)
			trees[k[0]] = tree
		}
		ref, ok := tree.PathTo(t, k[1])
		if !ok {
			r.addf("delay-bound", "pair %v has no OSPF reference path", k)
			continue
		}
		bound := (1 + beta) * ref.Latency(t)
		if got := ps.AlwaysOn.Latency(t); got > bound+1e-12 {
			r.addf("delay-bound", "pair %v always-on delay %.3gs exceeds (1+%.2f)×OSPF = %.3gs",
				k, got, beta, bound)
		}
	}
}

// checkPower asserts the power-side invariants: the always-on set
// never draws more than the all-on network, and (with a matrix) the
// evaluated placement's power lies between always-on and all-on.
func checkPower(t *topo.Topology, tb *core.Tables, opts Opts, r *Report) {
	full := power.FullWatts(t, opts.Model)
	if tb.AlwaysOnSet == nil {
		return
	}
	aon := power.NetworkWatts(t, opts.Model, tb.AlwaysOnSet)
	if aon > full+eps {
		r.addf("power", "always-on set draws %.1f W > all-on %.1f W", aon, full)
	}
	if opts.TM == nil {
		return
	}
	ev := tb.Evaluate(opts.TM, opts.Model, checkMaxUtil)
	if ev.Watts > full+eps {
		r.addf("power", "evaluated placement draws %.1f W > all-on %.1f W", ev.Watts, full)
	}
	if ev.Watts < aon-eps {
		r.addf("power", "evaluated placement draws %.1f W < always-on %.1f W", ev.Watts, aon)
	}
}

// CheckSRLGs vets a shared-risk-group model against its topology: every
// group must be non-empty with a unique name, every member link must
// exist, no group may list a link twice, and no single group may cover
// the whole topology (a storm that cuts one group must leave something
// standing for the always-correct fallback to run on). Violations use
// the "srlg" invariant.
func CheckSRLGs(t *topo.Topology, srlgs []topogen.SRLG) *Report {
	r := &Report{Name: t.Name}
	names := make(map[string]bool, len(srlgs))
	for gi, g := range srlgs {
		if g.Name == "" {
			r.addf("srlg", "group %d has no name", gi)
		} else if names[g.Name] {
			r.addf("srlg", "duplicate group name %q", g.Name)
		}
		names[g.Name] = true
		if len(g.Links) == 0 {
			r.addf("srlg", "group %q is empty", g.Name)
			continue
		}
		if len(g.Links) >= t.NumLinks() {
			r.addf("srlg", "group %q covers all %d links", g.Name, t.NumLinks())
		}
		seen := make(map[topo.LinkID]bool, len(g.Links))
		for _, l := range g.Links {
			if l < 0 || int(l) >= t.NumLinks() {
				r.addf("srlg", "group %q: link %d out of range", g.Name, l)
				continue
			}
			if seen[l] {
				r.addf("srlg", "group %q lists link %d twice", g.Name, l)
			}
			seen[l] = true
		}
	}
	return r
}

// TableScale returns (to ~2 % precision) the largest multiplier s such
// that base scaled by s places onto the installed tables without
// overload at the given ceiling — the table-level analog of
// mcf.MaxFeasibleScale. The ratio of the two is the share of the
// network's routable capacity the precomputed tables retain (§4.2's
// sensitivity claim, quantified).
func TableScale(t *topo.Topology, tb *core.Tables, base *traffic.Matrix,
	m power.Model, maxUtil float64) float64 {

	if m == nil {
		m = power.Cisco12000{}
	}
	if maxUtil <= 0 {
		maxUtil = 1.0
	}
	fits := func(s float64) bool {
		ev := tb.Evaluate(base.Scale(s), m, maxUtil)
		return ev.Overloaded == 0
	}
	if base.Len() == 0 || !fits(1e-12) {
		return 0
	}
	lo, hi := 0.0, 1.0
	for fits(hi) {
		lo = hi
		hi *= 2
		if hi > 1e18 {
			return lo
		}
	}
	for hi-lo > 0.02*lo {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// checkCapacity asserts capacity feasibility under the stress factor:
// the installed tables must absorb a non-trivial share of the
// network's routable load (the §4.2 claim that stress-excluded
// on-demand tables retain capacity), and at that operating point the
// placement must respect the ceiling on every arc.
func checkCapacity(t *topo.Topology, tb *core.Tables, opts Opts, r *Report) {
	scale := TableScale(t, tb, opts.TM, opts.Model, checkMaxUtil)
	r.TableScale = scale
	if opts.NetScale > 0 {
		if scale < minShare*opts.NetScale {
			r.addf("capacity", "tables absorb only %.3g of the network's %.3g routable scale (share %.3f < %.2f)",
				scale, opts.NetScale, scale/opts.NetScale, minShare)
		}
	}
	if scale <= 0 {
		if opts.TM.Len() > 0 {
			r.addf("capacity", "tables absorb none of the matched demand shape")
		}
		return
	}
	ev := tb.Evaluate(opts.TM.Scale(scale), opts.Model, checkMaxUtil)
	if ev.Overloaded > 0 {
		r.addf("capacity", "%d of %d demands overflow the tables at their own supported scale %.3g",
			ev.Overloaded, opts.TM.Len(), scale)
		return
	}
	if ev.MaxUtil > checkMaxUtil+eps {
		r.addf("capacity", "placement reaches %.4f utilization > ceiling %.4f",
			ev.MaxUtil, checkMaxUtil)
	}
	// Independent re-derivation: accumulate per-arc load from the raw
	// per-level placement and compare against capacities directly.
	load := make([]float64, t.NumArcs())
	for k, placed := range ev.Placed {
		ps := tb.Pairs[k]
		levels := ps.Levels()
		for li, amt := range placed {
			if amt <= 0 {
				continue
			}
			for _, aid := range levels[li].Arcs {
				load[aid] += amt
			}
		}
	}
	for i, l := range load {
		capBits := t.Arc(topo.ArcID(i)).Capacity * checkMaxUtil
		if l > capBits*(1+1e-6) {
			r.addf("capacity", "arc %d carries %.3g bps > %.3g allowed", i, l, capBits)
		}
	}
}
