// Package experiments is the public reproduction harness of the
// response module: one Run function per figure or table of the paper's
// evaluation, each returning a printable result. The cmd/response-sim,
// cmd/response-analyze and cmd/response-bench binaries are thin drivers
// over this package.
package experiments

import (
	"io"

	iexp "response/internal/experiments"
	"response/internal/stats"
	itrace "response/internal/trace"
	"response/topology"
)

// Result types, one per figure/table; each has a Print method.
type (
	// Fig1a is the traffic-deviation CCDF of the datacenter trace.
	Fig1a = iexp.Fig1a
	// Fig1b is the route-recomputation-rate comparison (also provides
	// the Figure 2a configuration-dominance view via PrintFig2a).
	Fig1b = iexp.Fig1b
	// Fig2b is the energy-critical path coverage result.
	Fig2b = iexp.Fig2b
	// Fig4 is the fat-tree sine-wave power experiment.
	Fig4 = iexp.Fig4
	// Fig5 is the multi-day GÉANT replay.
	Fig5 = iexp.Fig5
	// Fig6 is the PoP-access ISP power experiment.
	Fig6 = iexp.Fig6
	// Fig7 is the Click-testbed failover reproduction.
	Fig7 = iexp.Fig7
	// Fig8 is an ns-2-style adaptation experiment (8a ISP, 8b DC).
	Fig8 = iexp.Fig8
	// Fig9 is the streaming-application impact experiment.
	Fig9 = iexp.Fig9
	// WebTable is the web-workload latency table.
	WebTable = iexp.WebTable
	// AlwaysOnShare is the §4.1 always-on capacity-share measurement.
	AlwaysOnShare = iexp.AlwaysOnShare
	// StressSweep is the §4.2 stress-exclusion sensitivity sweep.
	StressSweep = iexp.StressSweep
	// Point is one (x, y) sample of a result curve.
	Point = stats.Point
)

// RunFig1a regenerates Figure 1a over a trace of the given length.
func RunFig1a(days int) Fig1a { return iexp.RunFig1a(days) }

// RunFig1b regenerates Figures 1b/2a, sub-sampling intervals by stride.
func RunFig1b(days, stride int) (Fig1b, error) { return iexp.RunFig1b(days, stride) }

// RunFig2b regenerates Figure 2b on GÉANT and the datacenter trace.
func RunFig2b(geantDays, geantStride, dcDays, dcStride int) (Fig2b, error) {
	return iexp.RunFig2b(geantDays, geantStride, dcDays, dcStride)
}

// RunFig4 regenerates Figure 4 with the given number of sine steps.
func RunFig4(steps int) (Fig4, error) { return iexp.RunFig4(steps) }

// RunFig5 regenerates Figure 5 over a replay of the given length.
func RunFig5(days int) (Fig5, error) { return iexp.RunFig5(days) }

// RunFig6 regenerates Figure 6.
func RunFig6() (Fig6, error) { return iexp.RunFig6() }

// RunFig7 regenerates Figure 7.
func RunFig7() (Fig7, error) { return iexp.RunFig7() }

// RunFig8a regenerates Figure 8a.
func RunFig8a() (Fig8, error) { return iexp.RunFig8a() }

// RunFig8b regenerates Figure 8b.
func RunFig8b() (Fig8, error) { return iexp.RunFig8b() }

// RunFig9 regenerates Figure 9.
func RunFig9() (Fig9, error) { return iexp.RunFig9() }

// RunWeb regenerates the web-workload table.
func RunWeb() (WebTable, error) { return iexp.RunWeb() }

// RunAlwaysOnShare measures the share of OSPF-routable volume the
// always-on paths alone can carry on t (§4.1 reports ≈50 %).
func RunAlwaysOnShare(t *topology.Topology) (AlwaysOnShare, error) {
	return iexp.RunAlwaysOnShare(t)
}

// RunStressSweep sweeps the stress-exclusion fraction (§4.2).
func RunStressSweep(fractions []float64) (StressSweep, error) {
	return iexp.RunStressSweep(fractions)
}

// EndpointSubset returns a deterministic random subset of t's natural
// endpoints, the paper's §5.1 endpoint-selection procedure.
func EndpointSubset(t *topology.Topology, fraction float64, seed int64) []topology.NodeID {
	return iexp.EndpointSubset(t, fraction, seed)
}

// WritePoints writes a result curve as two-column CSV.
func WritePoints(w io.Writer, xLabel, yLabel string, pts []Point) error {
	return itrace.WritePoints(w, xLabel, yLabel, pts)
}
