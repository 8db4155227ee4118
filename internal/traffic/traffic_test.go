package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"response/internal/stats"
	"response/internal/topo"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 100)
	m.Set(2, 1, 50)
	if m.Rate(1, 2) != 100 || m.Rate(2, 1) != 50 || m.Rate(1, 3) != 0 {
		t.Error("rates wrong")
	}
	if m.Len() != 2 || m.Total() != 150 {
		t.Error("aggregates wrong")
	}
	m.Add(1, 2, 25)
	if m.Rate(1, 2) != 125 {
		t.Error("Add failed")
	}
	m.Set(1, 2, 0)
	if m.Len() != 1 {
		t.Error("zero should delete")
	}
}

func TestMatrixDemandsDeterministic(t *testing.T) {
	m := NewMatrix()
	m.Set(3, 1, 10)
	m.Set(1, 3, 20)
	m.Set(1, 2, 30)
	d := m.Demands()
	if len(d) != 3 {
		t.Fatal("length")
	}
	if d[0].O != 1 || d[0].D != 2 || d[1].D != 3 || d[2].O != 3 {
		t.Errorf("order: %+v", d)
	}
}

func TestScaleAndClone(t *testing.T) {
	m := NewMatrix()
	m.Set(0, 1, 10)
	s := m.Scale(2.5)
	if s.Rate(0, 1) != 25 || m.Rate(0, 1) != 10 {
		t.Error("scale wrong or mutated original")
	}
	c := m.Clone()
	c.Set(0, 1, 99)
	if m.Rate(0, 1) != 10 {
		t.Error("clone shares storage")
	}
}

// Property: Total is linear under Scale.
func TestScaleLinearProperty(t *testing.T) {
	f := func(rates []uint16, factor uint8) bool {
		m := NewMatrix()
		for i, r := range rates {
			if i > 20 {
				break
			}
			m.Set(topo.NodeID(i), topo.NodeID(i+1), float64(r))
		}
		k := float64(factor) / 16
		got := m.Scale(k).Total()
		want := m.Total() * k
		return math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUniform(t *testing.T) {
	nodes := []topo.NodeID{0, 1, 2}
	m := Uniform(nodes, 5)
	if m.Len() != 6 {
		t.Errorf("pairs = %d, want 6", m.Len())
	}
	for _, d := range m.Demands() {
		if d.Rate != 5 || d.O == d.D {
			t.Errorf("bad demand %+v", d)
		}
	}
}

func TestRelativeChange(t *testing.T) {
	a := NewMatrix()
	a.Set(0, 1, 100)
	b := NewMatrix()
	b.Set(0, 1, 120)
	if got := RelativeChange(a, b); math.Abs(got-20) > 1e-9 {
		t.Errorf("change = %v, want 20", got)
	}
	if got := RelativeChange(b, a); math.Abs(got-100.0/6) > 1e-9 {
		t.Errorf("reverse change = %v", got)
	}
	empty := NewMatrix()
	if RelativeChange(empty, empty) != 0 {
		t.Error("empty-empty should be 0")
	}
	if RelativeChange(empty, b) != 100 {
		t.Error("growth from zero should saturate at 100")
	}
}

func TestGravityProportionality(t *testing.T) {
	g := topo.NewGeant()
	m := Gravity(g, GravityOpts{TotalRate: 1000})
	if math.Abs(m.Total()-1000) > 1e-6 {
		t.Errorf("total = %v, want 1000", m.Total())
	}
	// Gravity rates must be proportional to w(o)*w(d): check ratio
	// invariance across destination for two origins.
	capOf := func(n topo.NodeID) float64 {
		var c float64
		for _, aid := range g.Out(n) {
			c += g.Arc(aid).Capacity
		}
		return c
	}
	var o1, o2, d topo.NodeID = 0, 1, 2
	r1 := m.Rate(o1, d) / capOf(o1)
	r2 := m.Rate(o2, d) / capOf(o2)
	if math.Abs(r1-r2) > 1e-12*(r1+r2) {
		t.Errorf("gravity not proportional: %v vs %v", r1, r2)
	}
}

func TestHostGravityUsesHosts(t *testing.T) {
	ft, err := topo.NewFatTree(4, topo.FatTreeOpts{WithHosts: true})
	if err != nil {
		t.Fatal(err)
	}
	m := HostGravity(ft.Topology, 100)
	for _, d := range m.Demands() {
		if ft.Node(d.O).Kind != topo.KindHost || ft.Node(d.D).Kind != topo.KindHost {
			t.Fatal("non-host endpoint in host gravity")
		}
	}
}

func TestSinePairsLocality(t *testing.T) {
	ft, err := topo.NewFatTree(4, topo.FatTreeOpts{WithHosts: true})
	if err != nil {
		t.Fatal(err)
	}
	near := SinePairs(ft, Near)
	for _, p := range near {
		if ft.PodOf(p[0]) != ft.PodOf(p[1]) {
			t.Fatal("near pair crosses pods")
		}
	}
	far := SinePairs(ft, Far)
	for _, p := range far {
		if ft.PodOf(p[0]) == ft.PodOf(p[1]) {
			t.Fatal("far pair stays in pod")
		}
	}
	if len(near) != len(ft.AllHosts()) || len(far) != len(ft.AllHosts()) {
		t.Error("one flow per host expected")
	}
}

func TestSineSeriesShape(t *testing.T) {
	ft, err := topo.NewFatTree(4, topo.FatTreeOpts{WithHosts: true})
	if err != nil {
		t.Fatal(err)
	}
	s := SineSeries(ft, SineOpts{Locality: Far, Steps: 20})
	if len(s.Matrices) != 20 {
		t.Fatalf("steps = %d", len(s.Matrices))
	}
	if s.IntervalSec*20 != sinePeriodSec {
		t.Errorf("interval %v s × 20 steps, want one %v s period", s.IntervalSec, sinePeriodSec)
	}
	// Valley at step 0, peak near the middle.
	if s.Matrices[0].Total() >= s.Matrices[10].Total() {
		t.Error("sine should rise from valley to mid-period peak")
	}
	for i, m := range s.Matrices {
		if v := m.Total(); v <= 0 {
			t.Errorf("step %d total %v; floor should keep it positive", i, v)
		}
		for _, d := range m.Demands() {
			if d.Rate > sinePeak {
				t.Fatalf("step %d rate %v above the %v peak", i, d.Rate, sinePeak)
			}
		}
	}
	if s.Peak().Total() < s.OffPeak().Total() {
		t.Error("peak < off-peak")
	}
}

func TestDiurnalFactorShape(t *testing.T) {
	opts := DiurnalOpts{}
	opts.defaults()
	peak := opts.DiurnalFactor(15 * 3600) // Wednesday 15:00
	night := opts.DiurnalFactor(3 * 3600) // Wednesday 03:00
	if peak <= night {
		t.Errorf("peak %v <= night %v", peak, night)
	}
	if peak > 1+1e-9 || night < opts.NightFloor-1e-9 {
		t.Errorf("factor out of range: %v %v", peak, night)
	}
	// Day 3 of a Wednesday start = Saturday: weekend dip.
	sat := opts.DiurnalFactor((3*24 + 15) * 3600)
	if sat >= peak {
		t.Error("weekend should dip")
	}
}

func TestDiurnalSeriesLengthAndDeterminism(t *testing.T) {
	base := NewMatrix()
	base.Set(0, 1, 1000)
	base.Set(1, 0, 500)
	s1 := DiurnalSeries(base, DiurnalOpts{Days: 2, IntervalSec: 900, Seed: 3})
	if len(s1.Matrices) != 2*24*4 {
		t.Fatalf("intervals = %d", len(s1.Matrices))
	}
	s2 := DiurnalSeries(base, DiurnalOpts{Days: 2, IntervalSec: 900, Seed: 3})
	for i := range s1.Matrices {
		if s1.Matrices[i].Total() != s2.Matrices[i].Total() {
			t.Fatal("same seed diverged")
		}
	}
	s3 := DiurnalSeries(base, DiurnalOpts{Days: 2, IntervalSec: 900, Seed: 4})
	same := true
	for i := range s1.Matrices {
		if s1.Matrices[i].Total() != s3.Matrices[i].Total() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

// TestVolatileSeriesCalibration checks the Figure 1a property: roughly
// half of 5-minute intervals change total demand by at least 20 %.
func TestVolatileSeriesCalibration(t *testing.T) {
	base := NewMatrix()
	// A handful of flows, like a datacenter aggregate.
	for i := 0; i < 10; i++ {
		base.Set(topo.NodeID(i), topo.NodeID((i+1)%10), 1000)
	}
	s := VolatileSeries(base, VolatileOpts{Seed: 11})
	changes := PerFlowChanges(s)
	frac := stats.FractionAtLeast(changes, 20)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("P(per-flow change >= 20%%) = %.2f, want ≈0.5 (Figure 1a)", frac)
	}
	// Aggregate changes are tamer (flows decorrelate) but non-trivial.
	var aggChanges []float64
	for i := 1; i < len(s.Matrices); i++ {
		aggChanges = append(aggChanges, RelativeChange(s.Matrices[i-1], s.Matrices[i]))
	}
	agg := stats.FractionAtLeast(aggChanges, 10)
	if agg == 0 {
		t.Error("aggregate volatility collapsed to zero")
	}
}

// TestSeriesAt checks the series' time accessors: its span, and the
// peak and off-peak matrices the planner reads (d_peak, d_low).
func TestSeriesAt(t *testing.T) {
	s := &Series{IntervalSec: 10}
	for _, r := range []float64{2, 3, 1} {
		m := NewMatrix()
		m.Set(0, 1, r)
		s.Matrices = append(s.Matrices, m)
	}
	if s.Duration() != 30 {
		t.Error("duration")
	}
	if s.Peak().Rate(0, 1) != 3 || s.OffPeak().Rate(0, 1) != 1 {
		t.Errorf("peak/off-peak = %v/%v, want 3/1", s.Peak().Rate(0, 1), s.OffPeak().Rate(0, 1))
	}
	empty := &Series{IntervalSec: 10}
	if empty.Peak().Len() != 0 || empty.OffPeak().Len() != 0 {
		t.Error("empty series accessors should return empty matrices")
	}
}
