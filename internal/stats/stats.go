// Package stats provides the small statistical toolkit used by the
// evaluation harness: means, percentiles, empirical CCDF curves and
// five-number boxplot summaries.
//
// All functions treat their input as a sample of a one-dimensional
// distribution. Inputs are never mutated; functions that need ordering
// sort a private copy.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmptySample is returned by summaries that are undefined on empty input.
var ErrEmptySample = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest element of xs. It panics on empty input by
// design: callers in the harness always have non-empty samples and a
// silent zero would corrupt figures.
func Min(xs []float64) float64 {
	v := xs[0]
	for _, x := range xs[1:] {
		if x < v {
			v = x
		}
	}
	return v
}

// Max returns the largest element of xs. See Min about empty input.
func Max(xs []float64) float64 {
	v := xs[0]
	for _, x := range xs[1:] {
		if x > v {
			v = x
		}
	}
	return v
}

// Percentile returns the p-th percentile of xs using linear
// interpolation between closest ranks, with p in [0,100].
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// MustPercentile is Percentile for callers that guarantee non-empty
// input; it panics on error.
func MustPercentile(xs []float64, p float64) float64 {
	v, err := Percentile(xs, p)
	if err != nil {
		panic(err)
	}
	return v
}

// Boxplot is the five-number summary (plus mean) used for Figure 9
// style whisker plots (whiskers from min to max, as in the paper).
type Boxplot struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// NewBoxplot summarizes xs into a Boxplot.
func NewBoxplot(xs []float64) (Boxplot, error) {
	if len(xs) == 0 {
		return Boxplot{}, ErrEmptySample
	}
	b := Boxplot{
		Min:    Min(xs),
		Q1:     MustPercentile(xs, 25),
		Median: MustPercentile(xs, 50),
		Q3:     MustPercentile(xs, 75),
		Max:    Max(xs),
		Mean:   Mean(xs),
		N:      len(xs),
	}
	return b, nil
}

// Point is one (X, Y) sample of an empirical distribution curve.
type Point struct{ X, Y float64 }

// CCDF returns the complementary CDF of xs: Y = P(sample >= X).
// The first point has Y = 1 at the sample minimum.
func CCDF(xs []float64) []Point {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	var out []Point
	for i := 0; i < len(s); i++ {
		if i > 0 && s[i] == s[i-1] {
			continue
		}
		out = append(out, Point{X: s[i], Y: float64(len(s)-i) / n})
	}
	return out
}

// FractionAtLeast returns the fraction of samples >= threshold.
func FractionAtLeast(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := 0
	for _, x := range xs {
		if x >= threshold {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}
