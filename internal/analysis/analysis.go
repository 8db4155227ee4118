// Package analysis implements the paper's §3 trace analytics: the
// per-interval traffic-deviation CCDF (Figure 1a), the network-wide
// recomputation-rate metric (Figure 1b), routing-configuration
// dominance (Figure 2a), and energy-critical-path coverage (Figure 2b).
package analysis

import (
	"sort"

	"response/internal/mcf"
	"response/internal/power"
	"response/internal/stats"
	"response/internal/topo"
	"response/internal/traffic"
)

// Replay is the result of recomputing the minimal network subset for
// every (sub-sampled) interval of a trace — what the state-of-the-art
// approaches the paper critiques would do online.
type Replay struct {
	// IntervalSec is the effective spacing between entries (trace
	// interval × the sub-sampling stride).
	IntervalSec float64
	// Fingerprints identify each interval's active-set configuration.
	Fingerprints []uint64
	// Watts is each interval's network power.
	Watts []float64
	// Paths records the per-pair routing of each interval.
	Paths []map[[2]topo.NodeID]topo.Path
	// Volumes records each interval's matrix total.
	Volumes []float64
	// matrices retained for coverage computation.
	matrices []*traffic.Matrix
}

// ReplayOpts tunes ReplayMinSubsets.
type ReplayOpts struct {
	// Stride sub-samples the trace (default 1: every interval).
	Stride int
	// Optimal switches from the greedy descent in its default PowerDesc
	// order (the fastest single heuristic; the recomputation-rate
	// metric only needs the subset to track demand) to the
	// multi-restart subset search (slower, used when power numbers
	// matter more than speed).
	Optimal bool
}

// ReplayMinSubsets recomputes the minimum network subset for each
// interval of the series, as GreenTE/ElasticTree-style approaches would.
func ReplayMinSubsets(t *topo.Topology, s *traffic.Series, m power.Model, opts ReplayOpts) (*Replay, error) {
	if opts.Stride <= 0 {
		opts.Stride = 1
	}
	r := &Replay{IntervalSec: s.IntervalSec * float64(opts.Stride)}
	for i := 0; i < len(s.Matrices); i += opts.Stride {
		tm := s.Matrices[i]
		demands := tm.Demands()
		var (
			active  *topo.ActiveSet
			routing *mcf.Routing
			err     error
		)
		if opts.Optimal {
			active, routing, err = mcf.OptimalSubset(t, demands, m, mcf.OptimalOpts{})
		} else {
			active, routing, err = mcf.GreedyMinSubset(t, demands, m, mcf.GreedyOpts{})
		}
		if err != nil {
			return nil, err
		}
		r.Fingerprints = append(r.Fingerprints, active.Fingerprint())
		r.Watts = append(r.Watts, power.NetworkWatts(t, m, active))
		paths := make(map[[2]topo.NodeID]topo.Path, len(routing.Paths))
		for k, p := range routing.Paths {
			paths[k] = p
		}
		r.Paths = append(r.Paths, paths)
		r.Volumes = append(r.Volumes, tm.Total())
		r.matrices = append(r.matrices, tm)
	}
	return r, nil
}

// AddInterval appends one externally computed interval to the replay
// (used when the per-interval optimization runs outside
// ReplayMinSubsets, e.g. the fat-tree packer at k=12 scale). The
// configuration fingerprint is derived from the elements the routing
// touches; Watts is recorded as given (pass 0 when unused).
func (r *Replay) AddInterval(t *topo.Topology, tm *traffic.Matrix, routing *mcf.Routing, watts float64) {
	paths := make(map[[2]topo.NodeID]topo.Path, len(routing.Paths))
	for k, p := range routing.Paths {
		paths[k] = p
	}
	r.Paths = append(r.Paths, paths)
	r.Volumes = append(r.Volumes, tm.Total())
	r.matrices = append(r.matrices, tm)
	r.Fingerprints = append(r.Fingerprints, routing.UsedElements(t).Fingerprint())
	r.Watts = append(r.Watts, watts)
}

// Recomputations counts intervals whose configuration differs from the
// previous one — each would force a routing-table redeploy.
func (r *Replay) Recomputations() int {
	n := 0
	for i := 1; i < len(r.Fingerprints); i++ {
		if r.Fingerprints[i] != r.Fingerprints[i-1] {
			n++
		}
	}
	return n
}

// RatePerHour buckets recomputations into wall-clock hours: the Figure
// 1b series. Entry h is the number of configuration changes in hour h.
func (r *Replay) RatePerHour() []float64 {
	if len(r.Fingerprints) < 2 {
		return nil
	}
	perHour := int(3600/r.IntervalSec + 0.5)
	if perHour < 1 {
		perHour = 1
	}
	nHours := (len(r.Fingerprints) + perHour - 1) / perHour
	out := make([]float64, nHours)
	for i := 1; i < len(r.Fingerprints); i++ {
		if r.Fingerprints[i] != r.Fingerprints[i-1] {
			out[i/perHour]++
		}
	}
	return out
}

// ConfigShare is one routing configuration's share of trace time.
type ConfigShare struct {
	Fingerprint uint64
	Fraction    float64
}

// ConfigDominance returns distinct configurations sorted by the
// fraction of intervals they were active: Figure 2a. The paper finds
// one configuration (the minimal power tree) active ≈60 % of the time
// and ≈13 configurations total on GÉANT.
func (r *Replay) ConfigDominance() []ConfigShare {
	if len(r.Fingerprints) == 0 {
		return nil
	}
	counts := map[uint64]int{}
	for _, f := range r.Fingerprints {
		counts[f]++
	}
	out := make([]ConfigShare, 0, len(counts))
	for f, c := range counts {
		out = append(out, ConfigShare{Fingerprint: f, Fraction: float64(c) / float64(len(r.Fingerprints))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fraction != out[j].Fraction {
			return out[i].Fraction > out[j].Fraction
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Coverage summarizes energy-critical path concentration: for each
// pair, paths are ranked by the traffic they carried across the trace;
// MeanTopX[k-1] is the average (over pairs) fraction of traffic the top
// k paths account for, and PerPairTopX[k-1] holds the per-pair
// fractions for CDF plotting.
type Coverage struct {
	MeanTopX    []float64
	PerPairTopX [][]float64
}

// PathCoverage ranks each pair's observed paths by carried traffic:
// Figure 2b. maxX is the deepest rank evaluated (the figure uses 5).
func (r *Replay) PathCoverage(maxX int) Coverage {
	if maxX <= 0 {
		maxX = 5
	}
	type acc map[string]float64
	perPair := map[[2]topo.NodeID]acc{}
	totals := map[[2]topo.NodeID]float64{}
	for i, paths := range r.Paths {
		tm := r.matrices[i]
		for k, p := range paths {
			rate := tm.Rate(k[0], k[1])
			if rate <= 0 || p.Empty() {
				continue
			}
			a := perPair[k]
			if a == nil {
				a = acc{}
				perPair[k] = a
			}
			a[p.Key()] += rate
			totals[k] += rate
		}
	}
	cov := Coverage{
		MeanTopX:    make([]float64, maxX),
		PerPairTopX: make([][]float64, maxX),
	}
	keys := make([][2]topo.NodeID, 0, len(perPair))
	for k := range perPair {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		a := perPair[k]
		vols := make([]float64, 0, len(a))
		for _, v := range a {
			vols = append(vols, v)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vols)))
		var cum float64
		for x := 0; x < maxX; x++ {
			if x < len(vols) {
				cum += vols[x]
			}
			frac := 1.0
			if totals[k] > 0 {
				frac = cum / totals[k]
			}
			cov.PerPairTopX[x] = append(cov.PerPairTopX[x], frac)
		}
	}
	for x := 0; x < maxX; x++ {
		cov.MeanTopX[x] = stats.Mean(cov.PerPairTopX[x])
	}
	return cov
}
