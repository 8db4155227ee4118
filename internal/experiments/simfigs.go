package experiments

import (
	"fmt"
	"io"

	"response/internal/apps"
	"response/internal/core"
	"response/internal/mcf"
	"response/internal/power"
	"response/internal/sim"
	"response/internal/stats"
	"response/internal/te"
	"response/internal/topo"
	"response/internal/traffic"
)

// Fig7 is the Click-testbed timeline: per-path rates around TE start
// (t=5 s) and the middle-link failure (t=5.7 s).
type Fig7 struct {
	Times  []float64
	Middle []float64 // Mbps on the always-on middle path (both flows)
	Upper  []float64 // Mbps on the upper on-demand path
	Lower  []float64 // Mbps on the lower on-demand path
	Power  []float64 // % of full
	// ConsolidatedAt is when the on-demand paths drained (s).
	ConsolidatedAt float64
	// RestoredAt is when rates recovered after the failure (s).
	RestoredAt float64
}

// RunFig7 reproduces §5.3's Click experiment in the simulator: 16.67 ms
// 10 Mbps links, 100 ms failure detect+propagate, 10 ms wake-up.
func RunFig7() (Fig7, error) {
	ex := topo.NewExample(topo.ExampleOpts{})
	pinned := topo.AllOff(ex.Topology)
	pinned.ActivatePath(ex.Topology, ex.MiddlePath(ex.A))
	pinned.ActivatePath(ex.Topology, ex.MiddlePath(ex.C))
	s := sim.New(ex.Topology, sim.Opts{
		WakeUpDelay:      0.010,
		SleepAfterIdle:   0.050,
		FailureDetect:    0.050,
		FailurePropagate: 0.050,
		Model:            power.Cisco12000{},
		PinnedOn:         pinned,
	})
	ctrl := te.NewController(s, te.Opts{Threshold: 0.9, Gamma: 0.5})
	fa, err := s.AddFlow(ex.A, ex.K, 2.5*topo.Mbps,
		[]topo.Path{ex.MiddlePath(ex.A), ex.UpperPath()})
	if err != nil {
		return Fig7{}, err
	}
	fc, err := s.AddFlow(ex.C, ex.K, 2.5*topo.Mbps,
		[]topo.Path{ex.MiddlePath(ex.C), ex.LowerPath()})
	if err != nil {
		return Fig7{}, err
	}
	s.SetShare(fa, []float64{0.5, 0.5})
	s.SetShare(fc, []float64{0.5, 0.5})
	ctrl.Manage(fa)
	ctrl.Manage(fc)
	s.Schedule(5, func() { ctrl.Start() })
	eh, _ := ex.ArcBetween(ex.E, ex.H)
	s.Schedule(5.7, func() { s.FailLink(ex.Arc(eh).Link) })

	out := Fig7{}
	s.SampleEvery(0.05, 6.5, func(now float64) {
		out.Times = append(out.Times, now)
		out.Middle = append(out.Middle, (fa.PathRate(0)+fc.PathRate(0))/1e6)
		out.Upper = append(out.Upper, fa.PathRate(1)/1e6)
		out.Lower = append(out.Lower, fc.PathRate(1)/1e6)
		out.Power = append(out.Power, s.PowerPct())
	})
	s.Run(6.5)

	for i, t := range out.Times {
		if t >= 5 && out.Upper[i] == 0 && out.Lower[i] == 0 && out.ConsolidatedAt == 0 {
			out.ConsolidatedAt = t
		}
		if t > 5.7 && out.Upper[i] >= 2.4 && out.Lower[i] >= 2.4 && out.RestoredAt == 0 {
			out.RestoredAt = t
		}
	}
	return out, nil
}

// Print writes the Figure 7 timeline.
func (f Fig7) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 7 — REsPoNseTE on the Click-testbed topology")
	fmt.Fprintln(w, "  time    middle   upper   lower   power%")
	for i, t := range f.Times {
		if int(t*20)%5 != 0 { // thin the output
			continue
		}
		fmt.Fprintf(w, "  %5.2f   %6.2f  %6.2f  %6.2f   %5.1f\n",
			t, f.Middle[i], f.Upper[i], f.Lower[i], f.Power[i])
	}
	fmt.Fprintf(w, "  consolidated at t=%.2f s (TE start 5.00; paper: ≈200 ms ≈ 2 RTTs)\n", f.ConsolidatedAt)
	fmt.Fprintf(w, "  restored at t=%.2f s (failure 5.70 + 100 ms detect + 10 ms wake)\n", f.RestoredAt)
}

// Fig8 is an ns-2-style adaptation trace: offered demand vs. achieved
// aggregate rate vs. power, under stepped demand changes and 5 s wakes.
type Fig8 struct {
	Label     string
	Times     []float64
	DemandPct []float64 // % of peak demand
	RatePct   []float64 // achieved rate as % of peak demand
	PowerPct  []float64
	// MaxLagSec is the worst observed settling lag after a step.
	MaxLagSec float64
}

// RunFig8a reproduces Figure 8a on the PoP-access ISP topology:
// demands step every 30 s between util-50 and util-100 of the metro
// gravity load; wake-up takes 5 s.
func RunFig8a() (Fig8, error) {
	pa := topo.NewPopAccess()
	return runFig8(pa.Topology, pa.Metro, "PoP-access", 300)
}

// RunFig8b reproduces Figure 8b on a k=4 fat-tree with sine-stepped
// demand; the datacenter RTT is far smaller, so rates track demand even
// more closely.
func RunFig8b() (Fig8, error) {
	ft, err := topo.NewFatTree(4, topo.FatTreeOpts{WithHosts: true})
	if err != nil {
		return Fig8{}, err
	}
	return runFig8(ft.Topology, ft.AllHosts(), "FatTree", 300)
}

func runFig8(t *topo.Topology, endpoints []topo.NodeID, label string, dur float64) (Fig8, error) {
	model := power.Cisco12000{}
	base := traffic.Gravity(t, traffic.GravityOpts{Nodes: endpoints, TotalRate: 1})
	maxScale := mcf.MaxFeasibleScale(t, base, mcf.RouteOpts{}, 0.05)
	peak := base.Scale(maxScale * 0.9)
	// Solver-designed on-demand tables (d_peak known): the ns-2
	// experiments change demands between util levels the tables were
	// designed for.
	tables, err := core.Plan(t, core.PlanOpts{
		Model: model, Nodes: endpoints, Mode: core.ModeSolver, PeakTM: peak,
	})
	if err != nil {
		return Fig8{}, err
	}

	pinned := tables.AlwaysOnSet
	s := sim.New(t, sim.Opts{
		WakeUpDelay:    5, // §5.3: upper bound reported for existing HW
		SleepAfterIdle: 2,
		Model:          model,
		PinnedOn:       pinned,
	})
	ctrl := te.NewController(s, te.Opts{Threshold: 0.9, Gamma: 0.7, Period: 0.5})
	var flows []*sim.Flow
	demands := peak.Demands()
	for _, d := range demands {
		ps, ok := tables.PathSetFor(d.O, d.D)
		if !ok {
			continue
		}
		f, err := s.AddFlow(d.O, d.D, d.Rate*0.5, ps.Levels())
		if err != nil {
			return Fig8{}, err
		}
		ctrl.Manage(f)
		flows = append(flows, f)
	}
	ctrl.Start()

	// Step demand every 30 s, alternating util-50 and util-100 (the
	// paper's "aggressive" schedule).
	levels := []float64{0.5, 1.0}
	for step := 0; float64(step)*30 < dur; step++ {
		frac := levels[step%2]
		at := float64(step) * 30
		s.Schedule(at, func() {
			for i, f := range flows {
				s.SetDemand(f, demands[i].Rate*frac)
			}
		})
	}

	out := Fig8{Label: label}
	peakTotal := peak.Total()
	s.SampleEvery(1, dur, func(now float64) {
		var rate, demand float64
		for _, f := range flows {
			rate += f.Rate()
			demand += f.Demand
		}
		out.Times = append(out.Times, now)
		out.DemandPct = append(out.DemandPct, 100*demand/peakTotal)
		out.RatePct = append(out.RatePct, 100*rate/peakTotal)
		out.PowerPct = append(out.PowerPct, s.PowerPct())
	})
	s.Run(dur)

	// Settling lag per upward step: time until the achieved rate comes
	// within 5 % of its eventual plateau for that step (the plateau
	// rather than the demand: near util-100 the installed tables run
	// hot and the achieved rate legitimately tops out below demand).
	for i := 1; i < len(out.Times); i++ {
		if out.DemandPct[i] <= out.DemandPct[i-1] {
			continue
		}
		stepStart := out.Times[i]
		end := len(out.Times)
		for j := i + 1; j < len(out.Times); j++ {
			if out.DemandPct[j] != out.DemandPct[i] {
				end = j
				break
			}
		}
		plateau := out.RatePct[end-1]
		for j := i; j < end; j++ {
			if out.RatePct[j] >= plateau-5 {
				if lag := out.Times[j] - stepStart; lag > out.MaxLagSec {
					out.MaxLagSec = lag
				}
				break
			}
		}
	}
	return out, nil
}

// Print writes the Figure 8 trace.
func (f Fig8) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 8 (%s) — demand vs. achieved rate vs. power\n", f.Label)
	fmt.Fprintln(w, "  time   demand%   rate%   power%")
	for i, t := range f.Times {
		if int(t)%15 != 0 {
			continue
		}
		fmt.Fprintf(w, "  %4.0f   %6.0f   %5.0f   %6.1f\n",
			t, f.DemandPct[i], f.RatePct[i], f.PowerPct[i])
	}
	fmt.Fprintf(w, "  worst settling lag after an up-step: %.1f s (wake-up delay: 5 s)\n", f.MaxLagSec)
}

// Fig9 is the streaming experiment: playable-percentage boxplots per
// variant and load level, plus the block-latency delta.
type Fig9 struct {
	// Boxes maps "REP-lat50", "InvCap50", "REP-lat100", "InvCap100"
	// to per-client playable % summaries.
	Boxes map[string]stats.Boxplot
	// BlockLatencyIncreasePct is REsPoNse-lat vs. InvCap at 100
	// clients (paper: ≈5 %).
	BlockLatencyIncreasePct float64
}

// RunFig9 streams 600 kb/s video to 50 then 100 clients over Abovenet
// with REsPoNse-lat tables vs. OSPF-InvCap paths.
func RunFig9() (Fig9, error) {
	ab := topo.NewAbovenet()
	model := power.Cisco12000{}
	tables, err := core.Plan(ab, core.PlanOpts{Model: model, Beta: 0.25})
	if err != nil {
		return Fig9{}, err
	}
	src, _ := ab.NodeByName("SanJose")
	// Clients: every other PoP, repeated to reach the target count.
	var clientNodes []topo.NodeID
	for _, n := range ab.Nodes() {
		if n.ID != src {
			clientNodes = append(clientNodes, n.ID)
		}
	}
	mkClients := func(n int) []topo.NodeID {
		out := make([]topo.NodeID, n)
		for i := range out {
			out[i] = clientNodes[i%len(clientNodes)]
		}
		return out
	}
	ospf := core.OSPFPaths(ab, ab.SortedNodeIDs())

	variants := map[string]func(o, d topo.NodeID) []topo.Path{
		"REP-lat": func(o, d topo.NodeID) []topo.Path {
			if ps, ok := tables.PathSetFor(o, d); ok {
				return ps.Levels()
			}
			return nil
		},
		"InvCap": func(o, d topo.NodeID) []topo.Path {
			if p, ok := ospf[[2]topo.NodeID{o, d}]; ok {
				return []topo.Path{p}
			}
			return nil
		},
	}
	// Ambient load: gravity traffic at roughly half the network's
	// capacity, routed per-variant the same way the application is.
	bgBase := traffic.Gravity(ab, traffic.GravityOpts{TotalRate: 1})
	bgScale := mcf.MaxFeasibleScale(ab, bgBase, mcf.RouteOpts{}, 0.05)
	bgTM := bgBase.Scale(bgScale * 0.5)

	out := Fig9{Boxes: map[string]stats.Boxplot{}}
	var latREP, latInv float64
	for name, pathsFor := range variants {
		var background []apps.BackgroundFlow
		for _, d := range bgTM.Demands() {
			paths := pathsFor(d.O, d.D)
			if len(paths) == 0 {
				continue
			}
			background = append(background, apps.BackgroundFlow{
				O: d.O, D: d.D, Rate: d.Rate, Paths: paths,
			})
		}
		for _, load := range []int{50, 100} {
			phase1 := mkClients(50)
			var phase2 []topo.NodeID
			if load == 100 {
				phase2 = mkClients(100)[50:]
			}
			teOpts := &te.Opts{Threshold: 0.9, Period: 0.5}
			simOpts := sim.Opts{
				WakeUpDelay:    0.1,
				SleepAfterIdle: 5,
				Model:          model,
			}
			if name == "REP-lat" {
				simOpts.PinnedOn = tables.AlwaysOnSet
			} else {
				simOpts.PinnedOn = topo.AllOn(ab) // OSPF never sleeps
				teOpts = nil
			}
			res, err := apps.RunStreaming(ab, apps.StreamingOpts{
				Source:        src,
				Phase1Clients: phase1,
				Phase2Clients: phase2,
				Phase2At:      100,
				Duration:      200,
				PathsFor:      pathsFor,
				Sim:           simOpts,
				TE:            teOpts,
				Background:    background,
			})
			if err != nil {
				return Fig9{}, fmt.Errorf("%s/%d: %w", name, load, err)
			}
			out.Boxes[fmt.Sprintf("%s%d", name, load)] = res.PlayableBox
			if load == 100 {
				switch name {
				case "REP-lat":
					latREP = res.MeanBlockLatency
				case "InvCap":
					latInv = res.MeanBlockLatency
				}
			}
		}
	}
	if latInv > 0 {
		out.BlockLatencyIncreasePct = 100 * (latREP - latInv) / latInv
	}
	return out, nil
}

// Print writes the Figure 9 boxplots.
func (f Fig9) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 9 — % of clients able to play the video (min/Q1/med/Q3/max)")
	for _, name := range []string{"REP-lat50", "InvCap50", "REP-lat100", "InvCap100"} {
		b := f.Boxes[name]
		fmt.Fprintf(w, "  %-11s  %5.1f / %5.1f / %5.1f / %5.1f / %5.1f   (n=%d)\n",
			name, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.N)
	}
	fmt.Fprintf(w, "  block retrieval latency increase: %.1f%% (paper: ≈5%%)\n",
		f.BlockLatencyIncreasePct)
}

// WebTable is the §5.4 web workload comparison.
type WebTable struct {
	InvCapMean float64
	REPMean    float64
	// IncreasePct is the REsPoNse-lat latency increase (paper: ≈9 %).
	IncreasePct float64
}

// RunWeb measures web retrieval latency on Abovenet under REsPoNse-lat
// always-on paths vs. OSPF-InvCap.
func RunWeb() (WebTable, error) {
	ab := topo.NewAbovenet()
	model := power.Cisco12000{}
	tables, err := core.Plan(ab, core.PlanOpts{Model: model, Beta: 0.25})
	if err != nil {
		return WebTable{}, err
	}
	server, _ := ab.NodeByName("NewYork")
	clients := []topo.NodeID{}
	for _, name := range []string{"SanJose", "Seattle", "Miami", "Chicago"} {
		id, ok := ab.NodeByName(name)
		if !ok {
			return WebTable{}, fmt.Errorf("missing stub node %s", name)
		}
		clients = append(clients, id)
	}
	ospf := core.OSPFPaths(ab, ab.SortedNodeIDs())
	runVariant := func(pathFor func(s, c topo.NodeID) topo.Path) (float64, error) {
		res, err := apps.RunWeb(ab, apps.WebOpts{
			Server: server, Clients: clients, PathFor: pathFor, Seed: 505,
		})
		if err != nil {
			return 0, err
		}
		return res.Mean, nil
	}
	inv, err := runVariant(func(s, c topo.NodeID) topo.Path {
		return ospf[[2]topo.NodeID{s, c}]
	})
	if err != nil {
		return WebTable{}, err
	}
	rep, err := runVariant(func(s, c topo.NodeID) topo.Path {
		if ps, ok := tables.PathSetFor(s, c); ok {
			return ps.AlwaysOn
		}
		return topo.Path{}
	})
	if err != nil {
		return WebTable{}, err
	}
	return WebTable{
		InvCapMean:  inv,
		REPMean:     rep,
		IncreasePct: 100 * (rep - inv) / inv,
	}, nil
}

// Print writes the web workload table.
func (t WebTable) Print(w io.Writer) {
	fmt.Fprintln(w, "Web workload (SPECweb2005-banking-like) — mean retrieval latency")
	fmt.Fprintf(w, "  OSPF-InvCap:  %.1f ms\n", t.InvCapMean*1000)
	fmt.Fprintf(w, "  REsPoNse-lat: %.1f ms\n", t.REPMean*1000)
	fmt.Fprintf(w, "  increase: %.1f%% (paper: ≈9%%)\n", t.IncreasePct)
}
