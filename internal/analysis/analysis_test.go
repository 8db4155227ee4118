package analysis

import (
	"math"
	"testing"

	"response/internal/mcf"
	"response/internal/power"
	"response/internal/stats"
	"response/internal/topo"
	"response/internal/traffic"
)

// geantReplay builds a short GÉANT replay for analysis tests.
func geantReplay(t *testing.T, days int, stride int) (*topo.Topology, *Replay, *traffic.Series) {
	t.Helper()
	g := topo.NewGeant()
	base := traffic.Gravity(g, traffic.GravityOpts{TotalRate: 1})
	scale := mcf.MaxFeasibleScale(g, base, mcf.RouteOpts{}, 0.05)
	series := traffic.DiurnalSeries(base.Scale(scale*0.6), traffic.DiurnalOpts{
		Days: days, Seed: 5,
	})
	r, err := ReplayMinSubsets(g, series, power.Cisco12000{}, ReplayOpts{Stride: stride})
	if err != nil {
		t.Fatal(err)
	}
	return g, r, series
}

// TestDeviationCCDFShape checks Figure 1a's statistic, the CCDF of the
// per-interval relative per-flow demand changes: each flow dominates the
// outbound traffic of its host link in a datacenter, so per-flow
// deviation is the link statistic.
func TestDeviationCCDFShape(t *testing.T) {
	base := traffic.NewMatrix()
	for i := 0; i < 8; i++ {
		base.Set(topo.NodeID(i), topo.NodeID(i+8), 1000)
	}
	s := traffic.VolatileSeries(base, traffic.VolatileOpts{Days: 2, Seed: 9})
	ccdf := stats.CCDF(traffic.PerFlowChanges(s))
	if len(ccdf) == 0 {
		t.Fatal("empty CCDF")
	}
	if ccdf[0].Y != 1 {
		t.Error("CCDF must start at 1")
	}
	// Figure 1a: P(change >= 20%) should be substantial.
	frac := stats.FractionAtLeast(traffic.PerFlowChanges(s), 20)
	if frac < 0.25 {
		t.Errorf("P(change>=20%%) = %.2f, too tame for the DC trace", frac)
	}
}

func TestReplayRecomputations(t *testing.T) {
	_, r, _ := geantReplay(t, 2, 4)
	n := r.Recomputations()
	if n == 0 {
		t.Error("diurnal trace should force configuration changes")
	}
	per := r.RatePerHour()
	var sum float64
	for _, v := range per {
		sum += v
	}
	if int(sum) != n {
		t.Errorf("hourly sum %v != total %d", sum, n)
	}
	// With one sample per hour the rate is capped at 1/h; at the
	// trace's native 15-min granularity it is capped at 4/h.
	maxRate := 3600 / r.IntervalSec
	for h, v := range per {
		if v > maxRate+1e-9 {
			t.Errorf("hour %d rate %v exceeds cap %v", h, v, maxRate)
		}
	}
}

func TestConfigDominance(t *testing.T) {
	_, r, _ := geantReplay(t, 2, 4)
	shares := r.ConfigDominance()
	if len(shares) == 0 {
		t.Fatal("no configurations")
	}
	var sum float64
	for i, s := range shares {
		sum += s.Fraction
		if i > 0 && s.Fraction > shares[i-1].Fraction {
			t.Error("not sorted by share")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	t.Logf("configs: %d, dominant share %.0f%%", len(shares), shares[0].Fraction*100)
}

func TestPathCoverageMonotone(t *testing.T) {
	_, r, _ := geantReplay(t, 2, 4)
	cov := r.PathCoverage(5)
	if len(cov.MeanTopX) != 5 {
		t.Fatal("wrong depth")
	}
	for i := 1; i < 5; i++ {
		if cov.MeanTopX[i] < cov.MeanTopX[i-1]-1e-12 {
			t.Error("coverage must be monotone in X")
		}
	}
	for i, v := range cov.MeanTopX {
		if v <= 0 || v > 1+1e-12 {
			t.Errorf("top-%d coverage %v out of range", i+1, v)
		}
	}
	// Figure 2b: a few paths cover almost everything on GÉANT.
	if cov.MeanTopX[2] < 0.9 {
		t.Errorf("top-3 coverage = %.2f, want >= 0.9 (energy-critical paths exist)", cov.MeanTopX[2])
	}
	// Per-pair CDF data has one entry per pair per depth.
	if len(cov.PerPairTopX[0]) == 0 {
		t.Error("no per-pair data")
	}
}

// TestDistinctPathsPerPair: the replay records a routed path for every
// pair in every interval, so each pair shows at least one distinct
// path across the trace.
func TestDistinctPathsPerPair(t *testing.T) {
	_, r, _ := geantReplay(t, 2, 4)
	distinct := map[[2]topo.NodeID]map[string]bool{}
	for _, paths := range r.Paths {
		for k, p := range paths {
			if distinct[k] == nil {
				distinct[k] = map[string]bool{}
			}
			if !p.Empty() {
				distinct[k][p.Key()] = true
			}
		}
	}
	if len(distinct) == 0 {
		t.Fatal("no pairs")
	}
	for k, seen := range distinct {
		if len(seen) < 1 {
			t.Errorf("pair %v never used a path", k)
		}
	}
}

func TestReplayOptimalMode(t *testing.T) {
	g := topo.NewGeant()
	base := traffic.Gravity(g, traffic.GravityOpts{TotalRate: 2 * topo.Gbps})
	s := &traffic.Series{IntervalSec: 900, Matrices: []*traffic.Matrix{base, base.Scale(1.5)}}
	r, err := ReplayMinSubsets(g, s, power.Cisco12000{}, ReplayOpts{Optimal: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Watts) != 2 {
		t.Fatal("wrong length")
	}
	full := power.FullWatts(g, power.Cisco12000{})
	for _, w := range r.Watts {
		if w > full {
			t.Error("subset power exceeds full network")
		}
	}
}

func TestReplayInfeasibleDemand(t *testing.T) {
	g := topo.NewGeant()
	over := traffic.Gravity(g, traffic.GravityOpts{TotalRate: 1e15})
	s := &traffic.Series{IntervalSec: 900, Matrices: []*traffic.Matrix{over}}
	if _, err := ReplayMinSubsets(g, s, power.Cisco12000{}, ReplayOpts{}); err == nil {
		t.Error("expected infeasibility error")
	}
}
