// Package experiments wires the substrates into the paper's evaluation:
// one entry point per figure/table of §3 and §5, each returning a
// structured result that the CLI tools print and the root bench_test.go
// regenerates. DESIGN.md §5 indexes them against the paper's claims.
//
// Every experiment is deterministic (fixed seeds) so repeated runs give
// identical tables.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"response/internal/analysis"
	"response/internal/core"
	"response/internal/mcf"
	"response/internal/power"
	"response/internal/stats"
	"response/internal/topo"
	"response/internal/traffic"
)

// EndpointSubset picks a deterministic random subset of a topology's
// non-host nodes as traffic origins/destinations, per the paper's "we
// select the origins and destinations at random, as in [24]" (§5.1).
// PoPs outside the subset are transit-only and may sleep entirely.
func EndpointSubset(t *topo.Topology, fraction float64, seed int64) []topo.NodeID {
	all := core.DefaultEndpoints(t)
	n := int(float64(len(all))*fraction + 0.5)
	if n < 2 {
		n = 2
	}
	if n >= len(all) {
		return all
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	picked := append([]topo.NodeID(nil), all[:n]...)
	sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
	return picked
}

// GeantTrace builds the synthetic GÉANT 15-min trace used by Figures
// 1b, 2a, 2b and 5: gravity over a random endpoint subset (endpointFrac
// of the PoPs), scaled so the diurnal peak sits at peakUtil of the
// maximum feasible load.
func GeantTrace(days int, peakUtil, endpointFrac float64, seed int64) (*topo.Topology, []topo.NodeID, *traffic.Series) {
	g := topo.NewGeant()
	endpoints := EndpointSubset(g, endpointFrac, seed)
	base := traffic.Gravity(g, traffic.GravityOpts{Nodes: endpoints, TotalRate: 1})
	maxScale := mcf.MaxFeasibleScale(g, base, mcf.RouteOpts{}, 0.02)
	series := traffic.DiurnalSeries(base.Scale(maxScale*peakUtil), traffic.DiurnalOpts{
		Days: days, Seed: seed,
	})
	return g, endpoints, series
}

// DCTrace builds the Google-datacenter-like 5-min trace of Figure 1a.
func DCTrace(days int, seed int64) *traffic.Series {
	// An aggregate of rack-level flows; absolute rates are irrelevant
	// for the deviation statistic.
	base := traffic.NewMatrix()
	for i := 0; i < 32; i++ {
		base.Set(topo.NodeID(i), topo.NodeID((i+7)%32), 1*topo.Gbps)
	}
	return traffic.VolatileSeries(base, traffic.VolatileOpts{Days: days, Seed: seed})
}

// Fig1a is the CCDF of 5-minute traffic deviation in the datacenter
// trace. The paper's reading: in ≈50 % of cases traffic changes by at
// least 20 % within 5 minutes.
type Fig1a struct {
	CCDF []stats.Point
	// FracGE20 is P(change >= 20 %).
	FracGE20 float64
}

// RunFig1a regenerates Figure 1a.
func RunFig1a(days int) Fig1a {
	s := DCTrace(days, 101)
	changes := traffic.PerFlowChanges(s)
	return Fig1a{
		CCDF:     stats.CCDF(changes),
		FracGE20: stats.FractionAtLeast(changes, 20),
	}
}

// Print writes the figure as a small table.
func (f Fig1a) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 1a — CCDF of 5-min traffic change (Google-DC-like trace)")
	fmt.Fprintln(w, "  change >= X%    fraction of intervals")
	for _, x := range []float64{5, 10, 20, 40, 60, 80, 100} {
		var y float64
		for _, p := range f.CCDF {
			if p.X <= x {
				y = p.Y
			}
		}
		fmt.Fprintf(w, "  %10.0f%%    %.2f\n", x, y)
	}
	fmt.Fprintf(w, "  paper: ≈0.50 at 20%%; measured: %.2f\n", f.FracGE20)
}

// Fig1b is the recomputation-rate replay of the GÉANT trace.
type Fig1b struct {
	RatePerHour []float64
	Total       int
	MaxPerHour  float64
	// Configs is the number of distinct routing configurations seen
	// (shared with Figure 2a).
	Dominance []analysis.ConfigShare
	Coverage  analysis.Coverage
}

// RunFig1b replays the GÉANT trace, recomputing the minimal subset per
// interval as the state-of-the-art approaches would, and derives the
// recomputation rate (Fig. 1b), configuration dominance (Fig. 2a) and
// GÉANT path coverage (Fig. 2b) from the same replay.
func RunFig1b(days, stride int) (Fig1b, error) {
	g, _, series := GeantTrace(days, 0.2, 0.7, 202)
	r, err := analysis.ReplayMinSubsets(g, series, power.Cisco12000{}, analysis.ReplayOpts{
		Stride: stride,
	})
	if err != nil {
		return Fig1b{}, err
	}
	out := Fig1b{
		RatePerHour: r.RatePerHour(),
		Total:       r.Recomputations(),
		Dominance:   r.ConfigDominance(),
		Coverage:    r.PathCoverage(5),
	}
	for _, v := range out.RatePerHour {
		if v > out.MaxPerHour {
			out.MaxPerHour = v
		}
	}
	return out, nil
}

// Print writes Figure 1b.
func (f Fig1b) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 1b — recomputation rate (GÉANT replay)")
	fmt.Fprintf(w, "  total recomputations: %d over %d hours\n", f.Total, len(f.RatePerHour))
	fmt.Fprintf(w, "  max rate: %.0f/hour (trace-granularity cap: 4/hour at 15-min)\n", f.MaxPerHour)
	hist := map[int]int{}
	for _, v := range f.RatePerHour {
		hist[int(v)]++
	}
	for rate := 0; rate <= 4; rate++ {
		fmt.Fprintf(w, "  hours with %d recomputations: %d\n", rate, hist[rate])
	}
}

// PrintFig2a writes the configuration-dominance slice table.
func (f Fig1b) PrintFig2a(w io.Writer) {
	fmt.Fprintln(w, "Figure 2a — routing configuration dominance (GÉANT replay)")
	fmt.Fprintf(w, "  distinct configurations: %d (paper: ≈13)\n", len(f.Dominance))
	for i, s := range f.Dominance {
		if i >= 5 {
			fmt.Fprintf(w, "  ... %d more\n", len(f.Dominance)-i)
			break
		}
		fmt.Fprintf(w, "  config %d: active %.0f%% of the time\n", i+1, s.Fraction*100)
	}
	if len(f.Dominance) > 0 {
		fmt.Fprintf(w, "  paper: dominant config ≈60%%; measured: %.0f%%\n",
			f.Dominance[0].Fraction*100)
	}
}

// Fig2b is the energy-critical path coverage curve for both networks.
type Fig2b struct {
	Geant   []float64 // mean fraction of traffic carried by top-X paths
	FatTree []float64
}

// RunFig2b computes top-X path coverage on GÉANT (from the min-subset
// replay) and on a fat-tree with 36 core switches (k=12) driven by the
// Google-like trace.
func RunFig2b(geantDays, geantStride, dcDays, dcStride int) (Fig2b, error) {
	fb, err := RunFig1b(geantDays, geantStride)
	if err != nil {
		return Fig2b{}, err
	}
	ft, err := FatTreeCoverage(12, dcDays, dcStride)
	if err != nil {
		return Fig2b{}, err
	}
	return Fig2b{Geant: fb.Coverage.MeanTopX, FatTree: ft.MeanTopX}, nil
}

// FatTreeCoverage replays a Google-driven fat-tree and ranks per-pair
// paths by carried traffic using the k-shortest-path packer (the
// fat-tree-scale stand-in for per-interval re-optimization).
func FatTreeCoverage(k, days, stride int) (analysis.Coverage, error) {
	ft, err := topo.NewFatTree(k, topo.FatTreeOpts{WithHosts: true})
	if err != nil {
		return analysis.Coverage{}, err
	}
	// Mixed near/far host pairs, volumes driven by the DC trace. A
	// host's ingress link can see two flows, so the base rate plus a
	// clamp keep even spiked intervals within the 1 Gb/s host links.
	base := traffic.NewMatrix()
	for i, p := range traffic.SinePairs(ft, traffic.Far) {
		if i%2 == 0 {
			base.Set(p[0], p[1], 0.25*topo.Gbps)
		}
	}
	for i, p := range traffic.SinePairs(ft, traffic.Near) {
		if i%2 == 1 {
			base.Set(p[0], p[1], 0.25*topo.Gbps)
		}
	}
	series := traffic.VolatileSeries(base, traffic.VolatileOpts{Days: days, Seed: 303})
	const clamp = 0.45 * topo.Gbps
	for _, m := range series.Matrices {
		for _, d := range m.Demands() {
			if d.Rate > clamp {
				m.Set(d.O, d.D, clamp)
			}
		}
	}
	model := power.NewCommodity(k)
	cands := mcf.CandidatePaths(ft.Topology, base.Demands(), 8)

	replay := &analysis.Replay{IntervalSec: series.IntervalSec * float64(stride)}
	for i := 0; i < len(series.Matrices); i += stride {
		tm := series.Matrices[i]
		_, routing, err := mcf.KShortestSubset(ft.Topology, tm.Demands(), model, mcf.KShortOpts{
			K: 8, Paths: cands,
		})
		if err != nil {
			return analysis.Coverage{}, err
		}
		replay.AddInterval(ft.Topology, tm, routing, 0)
	}
	return replay.PathCoverage(5), nil
}

// Print writes Figure 2b.
func (f Fig2b) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 2b — traffic covered by top-X energy-critical paths")
	fmt.Fprintln(w, "  X    GÉANT     FatTree(36-core)")
	for i := range f.Geant {
		ftv := "-"
		if i < len(f.FatTree) {
			ftv = fmt.Sprintf("%.1f%%", f.FatTree[i]*100)
		}
		fmt.Fprintf(w, "  %d   %5.1f%%    %s\n", i+1, f.Geant[i]*100, ftv)
	}
	fmt.Fprintln(w, "  paper: GÉANT 2 paths ≈98%, 3 ≈100%; FatTree needs ≈5")
}
