package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Max(xs) != 7 {
		t.Errorf("Max = %v", Max(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty sample should error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("out-of-range percentile should error")
	}
}

func TestPercentileUnsortedInputUnchanged(t *testing.T) {
	xs := []float64{9, 1, 5}
	MustPercentile(xs, 50)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestBoxplot(t *testing.T) {
	b, err := NewBoxplot([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	if b.Min != 1 || b.Max != 9 || b.Median != 5 || b.N != 9 {
		t.Errorf("boxplot = %+v", b)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Errorf("quartiles = %v, %v", b.Q1, b.Q3)
	}
	if _, err := NewBoxplot(nil); err == nil {
		t.Error("empty boxplot should error")
	}
}

func TestCCDFBasic(t *testing.T) {
	pts := CCDF([]float64{1, 2, 3, 4})
	if pts[0].Y != 1 {
		t.Errorf("CCDF starts at %v, want 1", pts[0].Y)
	}
	if pts[len(pts)-1].Y != 0.25 {
		t.Errorf("CCDF ends at %v, want 0.25", pts[len(pts)-1].Y)
	}
}

// Property: CCDF is monotone nonincreasing in Y, starts at 1.
func TestCCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		pts := CCDF(xs)
		if pts[0].Y != 1 {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Y > pts[i-1].Y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: FractionAtLeast agrees with the CCDF at sampled thresholds.
func TestFractionAtLeastMatchesCCDF(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		for _, p := range CCDF(xs) {
			if math.Abs(FractionAtLeast(xs, p.X)-p.Y) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: percentile interpolation is bounded by sample min/max and
// monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1 := MustPercentile(xs, p1)
		v2 := MustPercentile(xs, p2)
		return v1 <= v2+1e-9 && v1 >= Min(xs)-1e-9 && v2 <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sanitize keeps quick-generated floats finite and deduplicates NaN.
func sanitize(raw []float64) []float64 {
	var out []float64
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		out = append(out, x)
	}
	if len(out) > 50 {
		out = out[:50]
	}
	sort.Float64s(out) // determinism of failures
	return out
}
