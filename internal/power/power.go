// Package power implements the router/switch power models of the
// paper's §5.1 and the network-wide power accounting of §2.2.1.
//
// The paper's objective is
//
//	Σ_i X_i [ Pc(i) + Σ_{i→j ∈ A_i} Y_i→j (Pl(i→j) + Pa(i→j)) ]
//
// where Pc is chassis power, Pl per-port line-card power and Pa
// optical-amplifier power. Three concrete models are provided:
//
//   - Cisco12000: a Cisco 12000-series configuration — 600 W chassis
//     (≈60 % of the budget) and 60–174 W line cards by rate (OC3..OC192).
//   - Alternative: any base model with the always-on (chassis) budget
//     divided by 10, the paper's "future energy-proportional hardware".
//   - Commodity: datacenter switches where fixed overheads (fans, switch
//     chips, transceivers) are ≈90 % of peak power regardless of load.
//
// A sleeping element consumes a negligible amount of power (§5.1,
// citing Nedevschi et al.), modelled as exactly zero.
package power

import (
	"response/internal/topo"
)

// Model prices the three element classes of the paper's formulation.
type Model interface {
	// ChassisWatts is Pc(i): the cost of running node n's chassis.
	ChassisWatts(n topo.Node) float64
	// PortWatts is Pl(i→j): the cost of the port on n driving arc a
	// (a.From == n.ID).
	PortWatts(n topo.Node, a topo.Arc) float64
	// AmpWatts is Pa(i→j): the per-direction optical amplifier cost of
	// the underlying link; it depends solely on link length.
	AmpWatts(l topo.Link) float64
	// Name labels the model in experiment output.
	Name() string
}

// Cisco12000 models a Cisco 12000-series router: 600 W chassis and
// line-card power stepped by interface rate (§5.1: 60–174 W per card,
// chassis ≈60 % of the router's budget). Optical repeaters draw 1.2 W
// per 80 km span.
type Cisco12000 struct{}

// Name implements Model.
func (Cisco12000) Name() string { return "cisco12000" }

// ChassisWatts implements Model: 600 W for any powered router, 0 for hosts.
func (Cisco12000) ChassisWatts(n topo.Node) float64 {
	if n.Kind == topo.KindHost {
		return 0
	}
	return 600
}

// PortWatts implements Model, stepping by the arc's capacity tier:
// OC3 (155 Mb/s) → 60 W, OC12 (622 Mb/s) → 80 W, OC48 (2.5 Gb/s) →
// 100 W, OC192 (10 Gb/s) → 174 W.
func (Cisco12000) PortWatts(n topo.Node, a topo.Arc) float64 {
	if n.Kind == topo.KindHost {
		return 0
	}
	switch {
	case a.Capacity <= 155*topo.Mbps:
		return 60
	case a.Capacity <= 622*topo.Mbps:
		return 80
	case a.Capacity <= 2500*topo.Mbps:
		return 100
	default:
		return 174
	}
}

// AmpWatts implements Model: 1.2 W per started 80 km span, per
// direction. Negligible next to line cards, as the paper observes.
func (Cisco12000) AmpWatts(l topo.Link) float64 {
	spans := int(l.LengthKm/80) + 1
	return 1.2 * float64(spans)
}

// Alternative wraps a base model and divides its chassis (always-on
// component) power by 10 — the paper's "alternative hardware model"
// reflecting ongoing energy-proportionality efforts (§5.1, Figure 5).
type Alternative struct{ Base Model }

// Name implements Model.
func (m Alternative) Name() string { return m.Base.Name() + "-alt" }

// ChassisWatts implements Model with the 10× reduced chassis budget.
func (m Alternative) ChassisWatts(n topo.Node) float64 {
	return m.Base.ChassisWatts(n) / 10
}

// PortWatts implements Model, delegating to the base model.
func (m Alternative) PortWatts(n topo.Node, a topo.Arc) float64 {
	return m.Base.PortWatts(n, a)
}

// AmpWatts implements Model, delegating to the base model.
func (m Alternative) AmpWatts(l topo.Link) float64 { return m.Base.AmpWatts(l) }

// Commodity models off-the-shelf datacenter switches (§5.1): fixed
// overheads (fans, switch chip, transceivers) are FixedFraction of peak
// power even with no traffic; the remainder is split across ports.
type Commodity struct {
	// PeakWatts is the switch's maximum draw (default 150 W).
	PeakWatts float64
	// FixedFraction of peak drawn by the chassis (default 0.9).
	FixedFraction float64
	// Ports is the port count over which the dynamic share is split
	// (default 4, a k=4 fat-tree switch).
	Ports int
}

// NewCommodity returns the defaults used in the fat-tree experiments:
// 150 W peak, 90 % fixed, k ports.
func NewCommodity(k int) Commodity {
	return Commodity{PeakWatts: 150, FixedFraction: 0.9, Ports: k}
}

// Name implements Model.
func (Commodity) Name() string { return "commodity" }

// ChassisWatts implements Model.
func (m Commodity) ChassisWatts(n topo.Node) float64 {
	if n.Kind == topo.KindHost {
		return 0
	}
	return m.peak() * m.fixed()
}

// PortWatts implements Model.
func (m Commodity) PortWatts(n topo.Node, a topo.Arc) float64 {
	if n.Kind == topo.KindHost {
		return 0
	}
	ports := m.Ports
	if ports <= 0 {
		ports = 4
	}
	return m.peak() * (1 - m.fixed()) / float64(ports)
}

// AmpWatts implements Model: datacenter links need no amplifiers.
func (Commodity) AmpWatts(l topo.Link) float64 { return 0 }

func (m Commodity) peak() float64 {
	if m.PeakWatts <= 0 {
		return 150
	}
	return m.PeakWatts
}

func (m Commodity) fixed() float64 {
	if m.FixedFraction <= 0 || m.FixedFraction >= 1 {
		return 0.9
	}
	return m.FixedFraction
}

// LinkWatts is the price of keeping link l on: a port at each endpoint
// plus the amplifier cost once per direction.
func LinkWatts(t *topo.Topology, m Model, l topo.Link) float64 {
	return m.PortWatts(t.Node(l.A), t.Arc(l.AB)) +
		m.PortWatts(t.Node(l.B), t.Arc(l.BA)) + 2*m.AmpWatts(l)
}

// NetworkWatts evaluates the paper's objective for a given power state:
// every active non-host router contributes its chassis, and every
// active link contributes a port at each endpoint plus the
// per-direction amplifier cost (counted once per direction, as in the
// model's sum over arcs). Sleeping elements contribute zero.
func NetworkWatts(t *topo.Topology, m Model, active *topo.ActiveSet) float64 {
	var w float64
	for _, n := range t.Nodes() {
		if n.Kind == topo.KindHost || !active.Router[n.ID] {
			continue
		}
		w += m.ChassisWatts(n)
	}
	for _, l := range t.Links() {
		if !active.Link[l.ID] {
			continue
		}
		// LinkWatts(t, m, l), added in two steps: every pinned plan
		// wattage was summed in this order, and folding the amplifier
		// term into the port sum first moves the last bits (GÉANT,
		// Cisco12000: 16727.200000000004 vs …08).
		ab, ba := t.Arc(l.AB), t.Arc(l.BA)
		w += m.PortWatts(t.Node(l.A), ab) + m.PortWatts(t.Node(l.B), ba)
		w += 2 * m.AmpWatts(l)
	}
	return w
}

// FullWatts is NetworkWatts with everything powered: the "original
// power" 100 % baseline of Figures 4–6.
func FullWatts(t *topo.Topology, m Model) float64 {
	return NetworkWatts(t, m, topo.AllOn(t))
}

// Meter integrates network energy over time as the active set evolves.
// Feed it state changes with Observe; it accumulates Joules between
// observations and keeps a (time, watts) series for plotting.
type Meter struct {
	topo   *topo.Topology
	model  Model
	last   float64 // last observation time, seconds
	watts  float64 // power level since last observation
	joules float64
	Series []Sample
	full   float64
}

// Sample is one point of a power time series.
type Sample struct {
	Time  float64 // seconds since simulation start
	Watts float64
	// PctOfFull is Watts as a percentage of the all-on network power.
	PctOfFull float64
}

// NewMeter starts metering at t=0 with the given initial state.
func NewMeter(t *topo.Topology, m Model, initial *topo.ActiveSet) *Meter {
	mt := &Meter{topo: t, model: m, full: FullWatts(t, m)}
	mt.watts = NetworkWatts(t, m, initial)
	mt.record(0)
	return mt
}

// Observe accounts energy up to now and records the new active set.
func (mt *Meter) Observe(now float64, active *topo.ActiveSet) {
	if now < mt.last {
		now = mt.last
	}
	mt.joules += mt.watts * (now - mt.last)
	mt.last = now
	mt.watts = NetworkWatts(mt.topo, mt.model, active)
	mt.record(now)
}

func (mt *Meter) record(now float64) {
	pct := 0.0
	if mt.full > 0 {
		pct = 100 * mt.watts / mt.full
	}
	mt.Series = append(mt.Series, Sample{Time: now, Watts: mt.watts, PctOfFull: pct})
}

// Finish closes the accounting interval at the given time and returns
// total energy in Joules.
func (mt *Meter) Finish(now float64) float64 {
	if now > mt.last {
		mt.joules += mt.watts * (now - mt.last)
		mt.last = now
	}
	return mt.joules
}

// FullWatts returns the all-on baseline power.
func (mt *Meter) FullWatts() float64 { return mt.full }
