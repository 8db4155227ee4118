package criticality

import (
	"slices"
	"testing"
)

// The instance: 3 links seeded {2, 0.5, 1}, 2 items. Item 0 touches
// links 0 and 1; item 1 touches link 1 once and link 2 twice. Every
// value below is a dyadic rational up to the last division, which is
// one correctly rounded operation on exact operands, so the expected
// scores are exact, not approximate — the warm descent's pinned plan
// fingerprints and the trace store's ranking depend on this float order.
//
//	h0   = seed/2                         = {1, 0.25, 0.5}
//	auth = {1+0.25, 0.25+0.5+0.5}         = {1.25, 1.25}
//	hub  = {1.25, 1.25+1.25, 1.25+1.25}   = {1.25, 2.5, 2.5}
//	h1   = seed·hub = {2.5, 1.25, 2.5}/2.5 = {1, 0.5, 1}
//	auth = {1+0.5, 0.5+1+1}               = {1.5, 2.5}
//	hub  = {1.5, 1.5+2.5, 2.5+2.5}        = {1.5, 4, 5}
//	h2   = seed·hub = {3, 2, 5}/5
//
// Counting link 2 once for item 1 would give h1 = {1, 0.4, 0.3}.
func handInstance() (seed []float64, items int, incidence func(int, func(int))) {
	links := [][]int{{0, 1}, {1, 2, 2}}
	return []float64{2, 0.5, 1}, len(links), func(i int, yield func(int)) {
		for _, l := range links[i] {
			yield(l)
		}
	}
}

func TestScoresHandComputed(t *testing.T) {
	for iters, want := range [][]float64{
		{1, 0.25, 0.5},
		{1, 0.5, 1},
		{3.0 / 5, 2.0 / 5, 1},
	} {
		seed, items, inc := handInstance()
		orig := slices.Clone(seed)
		got := Scores(seed, items, inc, iters)
		if !slices.Equal(got, want) {
			t.Errorf("iters=%d: scores %v, want exactly %v", iters, got, want)
		}
		if !slices.Equal(seed, orig) {
			t.Errorf("iters=%d: seed mutated to %v", iters, seed)
		}
		if again := Scores(seed, items, inc, iters); !slices.Equal(got, again) {
			t.Errorf("iters=%d: second call %v differs from first %v", iters, again, got)
		}
	}
}

// An all-zero seed has no maximum to normalize by: the scores must stay
// zero rather than turn into 0/0.
func TestScoresZeroSeedStaysZero(t *testing.T) {
	_, items, inc := handInstance()
	got := Scores(make([]float64, 3), items, inc, 4)
	if !slices.Equal(got, []float64{0, 0, 0}) {
		t.Errorf("scores %v, want all zero", got)
	}
}
