// Package traffic models traffic demands: origin-destination matrices,
// the capacity-based gravity model (§5.1), the ElasticTree sine-wave
// datacenter demand with near/far locality (§5.1), and the synthetic
// GÉANT-like and Google-datacenter-like traces behind Figures 1, 2 and 5
// (see DESIGN.md §2 for the substitution rationale).
package traffic

import (
	"fmt"
	"sort"

	"response/internal/topo"
)

// Demand is one origin-destination flow demand in bits per second.
type Demand struct {
	O, D topo.NodeID
	Rate float64
}

// Matrix is a traffic matrix: aggregate demand per (O,D) pair.
// The zero value is an empty matrix ready for Set.
type Matrix struct {
	rates map[[2]topo.NodeID]float64
}

// NewMatrix returns an empty traffic matrix.
func NewMatrix() *Matrix {
	return &Matrix{rates: make(map[[2]topo.NodeID]float64)}
}

// Set assigns the demand from o to d (bits/s); zero removes the entry.
func (m *Matrix) Set(o, d topo.NodeID, rate float64) {
	if m.rates == nil {
		m.rates = make(map[[2]topo.NodeID]float64)
	}
	k := [2]topo.NodeID{o, d}
	if rate == 0 {
		delete(m.rates, k)
		return
	}
	m.rates[k] = rate
}

// Reset removes every entry, retaining the allocated capacity —
// monitors that rebuild a live matrix periodically reuse one Matrix
// instead of allocating per sample.
func (m *Matrix) Reset() { clear(m.rates) }

// Add increases the demand from o to d.
func (m *Matrix) Add(o, d topo.NodeID, rate float64) {
	m.Set(o, d, m.Rate(o, d)+rate)
}

// Rate returns the demand from o to d, 0 if absent.
func (m *Matrix) Rate(o, d topo.NodeID) float64 {
	return m.rates[[2]topo.NodeID{o, d}]
}

// Len returns the number of non-zero (O,D) pairs.
func (m *Matrix) Len() int { return len(m.rates) }

// Demands returns all non-zero demands sorted by (O,D) for
// deterministic iteration.
func (m *Matrix) Demands() []Demand {
	out := make([]Demand, 0, len(m.rates))
	for k, r := range m.rates {
		out = append(out, Demand{O: k[0], D: k[1], Rate: r})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].O != out[j].O {
			return out[i].O < out[j].O
		}
		return out[i].D < out[j].D
	})
	return out
}

// Total returns the sum of all demands (bits/s).
func (m *Matrix) Total() float64 {
	var s float64
	for _, r := range m.rates {
		s += r
	}
	return s
}

// Scale returns a new matrix with every demand multiplied by f.
func (m *Matrix) Scale(f float64) *Matrix {
	out := NewMatrix()
	for k, r := range m.rates {
		out.rates[k] = r * f
	}
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix { return m.Scale(1) }

// Uniform returns a matrix with demand rate between every ordered pair
// of the given nodes — the paper's ε-demand trick (§4.1): with no
// traffic knowledge, set every flow to a tiny value to obtain a
// minimal-power routing with full connectivity.
func Uniform(nodes []topo.NodeID, rate float64) *Matrix {
	m := NewMatrix()
	for _, o := range nodes {
		for _, d := range nodes {
			if o != d {
				m.Set(o, d, rate)
			}
		}
	}
	return m
}

// RelativeChange returns |total(b)-total(a)| / total(a) in percent,
// the per-interval "change in traffic" statistic of Figure 1a.
func RelativeChange(a, b *Matrix) float64 {
	ta := a.Total()
	if ta == 0 {
		if b.Total() == 0 {
			return 0
		}
		return 100
	}
	d := b.Total() - ta
	if d < 0 {
		d = -d
	}
	return 100 * d / ta
}

// String summarizes the matrix.
func (m *Matrix) String() string {
	return fmt.Sprintf("tm{pairs:%d total:%.3g bps}", m.Len(), m.Total())
}

// Series is a sequence of matrices sampled at a fixed interval.
type Series struct {
	// IntervalSec is the sampling period in seconds (900 for GÉANT's
	// 15-minute TMs, 300 for the 5-minute datacenter trace).
	IntervalSec float64
	Matrices    []*Matrix
}

// Duration returns the covered time span in seconds.
func (s *Series) Duration() float64 {
	return s.IntervalSec * float64(len(s.Matrices))
}

// Peak returns the matrix with the largest total demand: the paper's
// d_peak estimation input for on-demand path computation (§4.2).
func (s *Series) Peak() *Matrix {
	if len(s.Matrices) == 0 {
		return NewMatrix()
	}
	best := s.Matrices[0]
	for _, m := range s.Matrices[1:] {
		if m.Total() > best.Total() {
			best = m
		}
	}
	return best
}

// OffPeak returns the matrix with the smallest total demand: d_low.
func (s *Series) OffPeak() *Matrix {
	if len(s.Matrices) == 0 {
		return NewMatrix()
	}
	best := s.Matrices[0]
	for _, m := range s.Matrices[1:] {
		if m.Total() < best.Total() {
			best = m
		}
	}
	return best
}
