package sim

import (
	"fmt"
	"math"

	"response/internal/topo"
)

// Flow is a fluid traffic aggregate from O to D with an offered demand
// split across installed paths by per-path shares. The achieved rate on
// each path is set by max-min fair sharing of link capacities among all
// subflows in the network.
type Flow struct {
	ID     int
	O, D   topo.NodeID
	Demand float64 // offered rate, bits/s

	// Paths are the installed table levels for this flow's pair.
	Paths []topo.Path
	// Share is the fraction of Demand offered to each path; the
	// controller moves share between levels. Sums to <= 1.
	Share []float64

	// pathRate is the achieved rate per path after allocation.
	pathRate []float64

	// CumulativeBytes integrates the achieved rate; application
	// workloads (streaming blocks, web transfers) read it.
	CumulativeBytes float64
	lastIntegrate   float64

	// subBase is the first subflow slot of this flow; level i lives at
	// subBase+i in the simulator's subflow universe.
	subBase int32
	removed bool
}

// Rate returns the flow's total achieved rate.
func (f *Flow) Rate() float64 {
	var s float64
	for _, r := range f.pathRate {
		s += r
	}
	return s
}

// PathRate returns the achieved rate on path level i.
func (f *Flow) PathRate(i int) float64 {
	if i < 0 || i >= len(f.pathRate) {
		return 0
	}
	return f.pathRate[i]
}

// ShareOf returns the current share on level i.
func (f *Flow) ShareOf(i int) float64 {
	if i < 0 || i >= len(f.Share) {
		return 0
	}
	return f.Share[i]
}

// Removed reports whether the flow has been withdrawn with RemoveFlow.
func (f *Flow) Removed() bool { return f.removed }

// AddFlow installs a flow with all share initially on level 0 and
// registers its (flow, level) subflows in the link inverted index.
func (s *Simulator) AddFlow(o, d topo.NodeID, demand float64, paths []topo.Path) (*Flow, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("sim: flow %d->%d needs at least one path", o, d)
	}
	for i, p := range paths {
		if p.Empty() {
			continue
		}
		if err := p.Check(s.T); err != nil {
			return nil, fmt.Errorf("sim: flow %d->%d path %d: %w", o, d, i, err)
		}
	}
	f := &Flow{
		ID:       len(s.flows),
		O:        o,
		D:        d,
		Demand:   demand,
		Paths:    paths,
		Share:    make([]float64, len(paths)),
		pathRate: make([]float64, len(paths)),
		subBase:  int32(len(s.subFlow)),
	}
	f.Share[0] = 1
	f.lastIntegrate = s.now
	for i, p := range paths {
		sf := int32(len(s.subFlow))
		s.subFlow = append(s.subFlow, int32(f.ID))
		s.subLevel = append(s.subLevel, int32(i))
		s.subRate = append(s.subRate, 0)
		blocked := int32(0)
		for _, aid := range p.Arcs {
			s.subArcs = append(s.subArcs, aid)
			s.arcSubs[aid] = append(s.arcSubs[aid], sf)
			if s.phase[s.T.Arc(aid).Link] != LinkActive {
				blocked++
			}
		}
		s.subBlocked = append(s.subBlocked, blocked)
		s.subArcStart = append(s.subArcStart, int32(len(s.subArcs)))
		s.indexLive += len(p.Arcs)
	}
	s.flows = append(s.flows, f)
	s.flowDirty = append(s.flowDirty, false)
	s.ws.grow(len(s.flows), len(s.subFlow))
	s.markFlowDirty(int32(f.ID))
	return f, nil
}

// RemoveFlow withdraws a flow: its offered traffic drops to zero, the
// freed capacity is redistributed. The *Flow stays readable (ID,
// CumulativeBytes) but is skipped by probing and by the link walks,
// and its inverted-index entries are
// compacted away once removed flows hold the majority of the index —
// under sustained churn, index walks and memory stay proportional to
// the live flow set. The flat subflow slots themselves are retained
// (IDs are stable for the simulator's lifetime), costing a few dozen
// bytes per removed level.
func (s *Simulator) RemoveFlow(f *Flow) {
	if f == nil || f.removed {
		return
	}
	s.integrate(f)
	f.removed = true
	s.markFlowDirty(int32(f.ID))
	for _, p := range f.Paths {
		s.indexLive -= len(p.Arcs)
		s.indexDead += len(p.Arcs)
	}
	if s.indexDead > s.indexLive {
		s.compactIndex()
	}
}

// compactIndex drops removed flows' entries from the inverted index,
// preserving the relative order of live entries (walk order is part of
// the runtime's deterministic behavior).
func (s *Simulator) compactIndex() {
	for aid := range s.arcSubs {
		list := s.arcSubs[aid]
		kept := list[:0]
		for _, sf := range list {
			if !s.flows[s.subFlow[sf]].removed {
				kept = append(kept, sf)
			}
		}
		s.arcSubs[aid] = kept
	}
	s.indexDead = 0
}

// Flows returns all installed flows, including removed ones (check
// Flow.Removed).
func (s *Simulator) Flows() []*Flow { return s.flows }

// SetDemand changes a flow's offered rate at the current time.
func (s *Simulator) SetDemand(f *Flow, demand float64) {
	s.integrate(f)
	f.Demand = demand
	s.markFlowDirty(int32(f.ID))
}

// SetShare overwrites a flow's share vector (normalizing negatives to
// zero). Callers that need wake-aware shifting should use the te
// package instead.
func (s *Simulator) SetShare(f *Flow, share []float64) {
	s.integrate(f)
	var sum float64
	for i := range share {
		if share[i] < 0 {
			share[i] = 0
		}
		sum += share[i]
	}
	if sum > 1+1e-9 {
		for i := range share {
			share[i] /= sum
		}
	}
	copy(f.Share, share)
	s.markFlowDirty(int32(f.ID))
}

// ShiftShare moves frac of the flow's total share from level `from` to
// level `to`, clamped to what `from` holds.
func (s *Simulator) ShiftShare(f *Flow, from, to int, frac float64) {
	if from < 0 || from >= len(f.Share) || to < 0 || to >= len(f.Share) || from == to {
		return
	}
	s.integrate(f)
	amt := math.Min(frac, f.Share[from])
	if amt <= 0 {
		return
	}
	f.Share[from] -= amt
	f.Share[to] += amt
	s.markFlowDirty(int32(f.ID))
}

// Bytes returns the flow's cumulative received bytes as of now.
func (s *Simulator) Bytes(f *Flow) float64 {
	s.integrate(f)
	return f.CumulativeBytes
}

// integrate folds achieved bytes up to now into the flow counter.
func (s *Simulator) integrate(f *Flow) {
	dt := s.now - f.lastIntegrate
	if dt > 0 {
		f.CumulativeBytes += f.Rate() / 8 * dt
	}
	f.lastIntegrate = s.now
}
