package response_test

// Benchmark harness: one benchmark per figure/table of the paper's
// evaluation (see DESIGN.md §5 for the experiment index; the expected
// paper values are quoted in each benchmark's comment).
//
// Each benchmark regenerates its figure end-to-end per iteration and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Traces are shortened relative to
// the paper (2 days instead of 15/8) to keep a full run in minutes;
// cmd/response-bench (without -quick) runs the 8-day versions.

import (
	"testing"

	"response/internal/experiments"
	"response/internal/power"
	"response/internal/sim"
	"response/internal/te"
	"response/internal/topo"
)

// BenchmarkFig1aTrafficDeviation regenerates Figure 1a: the CCDF of
// 5-minute traffic deviation in the datacenter trace. Paper: ≈50 % of
// intervals change by ≥20 %.
func BenchmarkFig1aTrafficDeviation(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig1a(2)
		frac = res.FracGE20
	}
	b.ReportMetric(frac, "fracGE20%")
}

// BenchmarkFig1bRecomputationRate regenerates Figure 1b: per-interval
// re-optimization of the GÉANT replay and the resulting recomputation
// rate. Paper: up to 4/hour (the trace-granularity cap).
func BenchmarkFig1bRecomputationRate(b *testing.B) {
	var maxRate float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1b(2, 2)
		if err != nil {
			b.Fatal(err)
		}
		maxRate = res.MaxPerHour
	}
	b.ReportMetric(maxRate, "max/hour")
}

// BenchmarkFig2aConfigDominance regenerates Figure 2a: distinct routing
// configurations and the dominant one's share. Paper: ≈13 configs, the
// minimal power tree active ≈60 % of the time.
func BenchmarkFig2aConfigDominance(b *testing.B) {
	var dominant float64
	var configs int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1b(2, 2)
		if err != nil {
			b.Fatal(err)
		}
		configs = len(res.Dominance)
		dominant = res.Dominance[0].Fraction
	}
	b.ReportMetric(dominant*100, "dominant%")
	b.ReportMetric(float64(configs), "configs")
}

// BenchmarkFig2bCriticalPathCoverage regenerates Figure 2b: traffic
// coverage of the top-X paths per pair. Paper: GÉANT 3 paths ≈100 %;
// fat-tree (36-core) needs ≈5.
func BenchmarkFig2bCriticalPathCoverage(b *testing.B) {
	var geant3, ft5 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2b(2, 2, 1, 24)
		if err != nil {
			b.Fatal(err)
		}
		geant3 = res.Geant[2]
		ft5 = res.FatTree[4]
	}
	b.ReportMetric(geant3*100, "geant-top3%")
	b.ReportMetric(ft5*100, "fattree-top5%")
}

// BenchmarkFig4FatTreeSine regenerates Figure 4: power under a sine
// demand in a k=4 fat-tree. Paper: REsPoNse(near) < REsPoNse(far) <
// ECMP = 100 %.
func BenchmarkFig4FatTreeSine(b *testing.B) {
	var near, far float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(10)
		if err != nil {
			b.Fatal(err)
		}
		near = mean(res.Near)
		far = mean(res.Far)
	}
	b.ReportMetric(near, "near-power%")
	b.ReportMetric(far, "far-power%")
}

// BenchmarkFig5GeantReplay regenerates Figure 5: the multi-day GÉANT
// replay over once-computed tables. Paper: ≈30 % savings today, ≈42 %
// with the alternative hardware model, zero recomputations.
func BenchmarkFig5GeantReplay(b *testing.B) {
	var today, alt float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(2)
		if err != nil {
			b.Fatal(err)
		}
		today = res.MeanSavingsToday
		alt = res.MeanSavingsAlt
	}
	b.ReportMetric(today, "savings%")
	b.ReportMetric(alt, "savings-altHW%")
}

// BenchmarkFig6GenuityUtilization regenerates Figure 6: the Genuity
// power sweep across util-10/50/100 for all five techniques.
func BenchmarkFig6GenuityUtilization(b *testing.B) {
	var respLow, optLow float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6()
		if err != nil {
			b.Fatal(err)
		}
		respLow = res.Power["REsPoNse"][0]
		optLow = res.Power["Optimal"][0]
	}
	b.ReportMetric(respLow, "response-util10%")
	b.ReportMetric(optLow, "optimal-util10%")
}

// BenchmarkFig7ClickFailover regenerates Figure 7: consolidation within
// ≈2 RTTs of TE start and restoration after the middle-link failure.
func BenchmarkFig7ClickFailover(b *testing.B) {
	var consolidated, restored float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7()
		if err != nil {
			b.Fatal(err)
		}
		consolidated = res.ConsolidatedAt
		restored = res.RestoredAt
	}
	b.ReportMetric(consolidated-5, "consolidate-s")
	b.ReportMetric(restored-5.7, "restore-s")
}

// BenchmarkFig8aPopAccess regenerates Figure 8a: stepped demands on the
// PoP-access ISP with 5 s wake-ups. Paper: rates track demand within a
// few RTTs, except one 5 s wake stall.
func BenchmarkFig8aPopAccess(b *testing.B) {
	var lag float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8a()
		if err != nil {
			b.Fatal(err)
		}
		lag = res.MaxLagSec
	}
	b.ReportMetric(lag, "worst-lag-s")
}

// BenchmarkFig8bFatTree regenerates Figure 8b: the same schedule on a
// k=4 fat-tree, where small RTTs make tracking even tighter.
func BenchmarkFig8bFatTree(b *testing.B) {
	var lag float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8b()
		if err != nil {
			b.Fatal(err)
		}
		lag = res.MaxLagSec
	}
	b.ReportMetric(lag, "worst-lag-s")
}

// BenchmarkFig9Streaming regenerates Figure 9: the fraction of
// streaming clients able to play the video under REsPoNse-lat vs.
// OSPF-InvCap at 50 and 100 clients. Paper: no significant difference;
// block latency +≈5 %.
func BenchmarkFig9Streaming(b *testing.B) {
	var repMedian, invMedian, latInc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9()
		if err != nil {
			b.Fatal(err)
		}
		repMedian = res.Boxes["REP-lat100"].Median
		invMedian = res.Boxes["InvCap100"].Median
		latInc = res.BlockLatencyIncreasePct
	}
	b.ReportMetric(repMedian, "rep100-median%")
	b.ReportMetric(invMedian, "invcap100-median%")
	b.ReportMetric(latInc, "blocklat-inc%")
}

// BenchmarkWebWorkload regenerates the §5.4 web experiment. Paper: web
// retrieval latency increases by ≈9 % under REsPoNse-lat.
func BenchmarkWebWorkload(b *testing.B) {
	var inc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWeb()
		if err != nil {
			b.Fatal(err)
		}
		inc = res.IncreasePct
	}
	b.ReportMetric(inc, "latency-inc%")
}

// BenchmarkAlwaysOnCapacityShare regenerates the §4.1 claim that
// always-on paths alone carry ≈50 % of the OSPF-routable volume.
func BenchmarkAlwaysOnCapacityShare(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAlwaysOnShare(topo.NewGeant())
		if err != nil {
			b.Fatal(err)
		}
		share = res.Share
	}
	b.ReportMetric(share*100, "share%")
}

// BenchmarkStressFactorSensitivity is the §4.2 ablation: peak-carrying
// capability of the installed tables as the stress-exclusion fraction
// sweeps 0–40 %. Paper: 20 % suffices.
func BenchmarkStressFactorSensitivity(b *testing.B) {
	var at20 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunStressSweep([]float64{0, 0.2, 0.4})
		if err != nil {
			b.Fatal(err)
		}
		at20 = res.PeakShare[1]
	}
	b.ReportMetric(at20*100, "peak-at-20pct%")
}

// BenchmarkTEAgentOverhead measures the per-decision cost of the
// REsPoNseTE agent. The paper reports 2–3 % of per-packet router time;
// here the metric is nanoseconds per decision on the Figure 3 setup.
func BenchmarkTEAgentOverhead(b *testing.B) {
	ex := topo.NewExample(topo.ExampleOpts{})
	s := sim.New(ex.Topology, sim.Opts{Model: power.Cisco12000{}})
	ctrl := te.NewController(s, te.Opts{})
	fa, err := s.AddFlow(ex.A, ex.K, 2.5*topo.Mbps,
		[]topo.Path{ex.MiddlePath(ex.A), ex.UpperPath()})
	if err != nil {
		b.Fatal(err)
	}
	ctrl.Manage(fa)
	s.Run(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.DecideOnce(fa)
	}
}

// BenchmarkPlanGeant measures the one-time off-line planning cost on
// GÉANT — the cost REsPoNse pays once instead of per traffic change.
func BenchmarkPlanGeant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAlwaysOnShare(topo.NewGeant()); err != nil {
			b.Fatal(err)
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
