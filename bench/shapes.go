package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"response/internal/controld"
	"response/internal/core"
	"response/internal/mcf"
	"response/internal/topo"
	"response/internal/topogen"
	"response/internal/traffic"
)

// netSpec names a network: a topogen family at a size, or the built-in
// GÉANT map.
type netSpec struct {
	Family       string `json:"family"`
	Size         int    `json:"size,omitempty"`
	MaxEndpoints int    `json:"max_endpoints,omitempty"`
}

const (
	// structSeed seeds every generated input whose values decide how
	// much work it is: the topology a family generates, the endpoint
	// choice, the planner's restart orders, every flow's diurnal phase
	// (replay and tenants alike) and the links a storm cuts. Planner and
	// controller work is chaotic in those values — when this was sized,
	// a 1 % demand perturbation moved the fat-tree replan by 25 %, and
	// re-drawing the flow phases moved the mean simulated hour by 17 % —
	// so a 10 % regression bound cannot hold across them. The -seed
	// argument draws the inputs the work is insensitive to: the actors
	// of the trace stream, the clients' tenant order and the policy
	// values they patch, the links the spf probe avoids.
	structSeed = 1
	// peakUtil anchors every matched matrix at half the routable load,
	// the operating point of the committed BENCH_gen sweep.
	peakUtil = 0.5
	// refSeconds is the -seconds value the frozen counts below are
	// sized for; another value scales them in proportion.
	refSeconds = 10
)

// shape is one workload: the whole stack driven once — plan offline,
// run online, operate through the daemon, diagnose from the trace —
// at sizes that make one of those phases dominate. Every count is an
// operation count, never a duration: a faster program finishes sooner,
// it does not do more.
type shape struct {
	Name string `json:"name"`

	// Offline: PlanIters × (cold plan, demand-aware replan, warm
	// replan) of Plan. Restarts < 0 keeps NewPlanner's default.
	Plan      netSpec `json:"plan_net"`
	Restarts  int     `json:"restarts"`
	PlanIters int     `json:"plan_iters"`

	// Online: a diurnal replay of Flows managed flows on Runtime for
	// Hours simulated hours, Storms fail/repair cycles, then Swaps hot
	// swaps on a lifecycle rig of the same flow count.
	Runtime netSpec `json:"runtime_net"`
	Flows   int     `json:"flows"`
	Hours   int     `json:"sim_hours"`
	Storms  int     `json:"storms"`
	Swaps   int     `json:"swaps"`

	// Daemon: two closed-loop clients share Tenants (alternating over
	// TenantNets, TenantFlows flows each) and drive Rounds rounds per
	// tenant.
	TenantNets  []netSpec `json:"tenant_nets"`
	Tenants     int       `json:"tenants"`
	TenantFlows int       `json:"tenant_flows"`
	Rounds      int       `json:"rounds_per_tenant"`

	// Diagnosis: a TraceEvents-line incident stream, Ingests fresh
	// full-retention ingests, Drills four-tier drill-downs.
	TraceEvents int `json:"trace_events"`
	Ingests     int `json:"ingests"`
	Drills      int `json:"drills"`
}

var (
	fattree4  = netSpec{Family: "fattree", Size: 4}
	waxman16  = netSpec{Family: "waxman", Size: 16}
	geant     = netSpec{Family: "geant"}
	smallNets = []netSpec{waxman16, fattree4}
)

// shapes are the frozen workloads, sized on the 2-core reference box
// so that each run measures for about refSeconds (see README.md for
// the reference numbers). Changing a count changes every number
// measured after it: re-measure the baseline when you do.
var shapes = []shape{
	{
		Name: "plan-fattree8",
		Plan: netSpec{Family: "fattree", Size: 8, MaxEndpoints: 16}, Restarts: 0, PlanIters: 3,
		Runtime: fattree4, Flows: 1000, Hours: 48, Storms: 30, Swaps: 50,
		TenantNets: []netSpec{fattree4}, Tenants: 2, TenantFlows: 200, Rounds: 20,
		TraceEvents: 1 << 17, Ingests: 5, Drills: 300,
	},
	{
		Name: "plan-waxman50",
		Plan: netSpec{Family: "waxman", Size: 50, MaxEndpoints: 16}, Restarts: -1, PlanIters: 3,
		Runtime: waxman16, Flows: 1000, Hours: 48, Storms: 30, Swaps: 50,
		TenantNets: []netSpec{waxman16}, Tenants: 2, TenantFlows: 200, Rounds: 12,
		TraceEvents: 1 << 17, Ingests: 5, Drills: 300,
	},
	{
		Name: "online-diurnal",
		Plan: geant, Restarts: -1, PlanIters: 5,
		Runtime: geant, Flows: 10000, Hours: 48, Storms: 20, Swaps: 30,
		TenantNets: []netSpec{geant}, Tenants: 2, TenantFlows: 200, Rounds: 6,
		TraceEvents: 1 << 17, Ingests: 5, Drills: 300,
	},
	{
		Name: "controld-mixed",
		Plan: waxman16, Restarts: -1, PlanIters: 9,
		Runtime: waxman16, Flows: 1000, Hours: 48, Storms: 30, Swaps: 50,
		TenantNets: smallNets, Tenants: 8, TenantFlows: 200, Rounds: 28,
		TraceEvents: 1 << 17, Ingests: 5, Drills: 300,
	},
	{
		Name: "trace-drill",
		Plan: fattree4, Restarts: -1, PlanIters: 25,
		Runtime: fattree4, Flows: 1000, Hours: 48, Storms: 30, Swaps: 50,
		TenantNets: []netSpec{fattree4}, Tenants: 2, TenantFlows: 200, Rounds: 16,
		TraceEvents: 1 << 19, Ingests: 3, Drills: 1200,
	},
}

// smoke shrinks a shape to test scale: the same phases and code paths,
// a second or so of work.
func (s shape) smoke() shape {
	small := fattree4
	if s.Plan.Family == waxman16.Family {
		small = waxman16 // keep an irregular mesh and the restart pool in the test
	}
	s.Plan, s.Runtime = small, small
	s.PlanIters = 1
	s.Flows, s.Hours, s.Storms, s.Swaps = 500, 12, 1, 2
	s.TenantNets, s.Tenants, s.TenantFlows, s.Rounds = []netSpec{fattree4}, 2, 50, 3
	s.TraceEvents, s.Ingests, s.Drills = 20000, 1, 20
	return s
}

// scaled multiplies the operation counts for a -seconds other than
// refSeconds. Sizes (nodes, flows, tenants, events) are not touched.
func (s shape) scaled(seconds int) shape {
	f := float64(seconds) / refSeconds
	mul := func(n, floor int) int {
		return max(floor, int(math.Round(float64(n)*f)))
	}
	s.PlanIters = mul(s.PlanIters, 1)
	s.Hours = mul(s.Hours, 2)
	s.Storms = mul(s.Storms, 1)
	s.Swaps = mul(s.Swaps, 2)
	s.Rounds = mul(s.Rounds, 1)
	s.Ingests = mul(s.Ingests, 1)
	s.Drills = mul(s.Drills, 1)
	return s
}

// coreRestarts is Restarts as core.PlanOpts and mcf.OptimalOpts spell
// it: zero selects the default, a negative value none.
func (s shape) coreRestarts() int {
	switch {
	case s.Restarts < 0:
		return 0
	case s.Restarts == 0:
		return -1
	}
	return s.Restarts
}

func shapeByName(name string) (shape, bool) {
	for _, s := range shapes {
		if s.Name == name {
			return s, true
		}
	}
	return shape{}, false
}

// buildNet generates the instance a netSpec names: topology, endpoint
// universe and the matched gravity matrix at peakUtil.
func buildNet(n netSpec) (*topogen.Instance, error) {
	if n.Family != "geant" {
		return topogen.Generate(topogen.Config{
			Family: topogen.Family(n.Family), Size: n.Size, Seed: structSeed,
			PeakUtil: peakUtil, MaxEndpoints: n.MaxEndpoints,
		})
	}
	// GÉANT is not a topogen family; assemble the same Instance by
	// hand with the paper's §5.1 endpoint rule (a random 70 % of the
	// PoPs), exactly as scenario.NewDiurnal would pick them.
	g := topo.NewGeant()
	eps := core.DefaultEndpoints(g)
	rng := rand.New(rand.NewSource(structSeed))
	rng.Shuffle(len(eps), func(i, j int) { eps[i], eps[j] = eps[j], eps[i] })
	eps = eps[:int(float64(len(eps))*0.7+0.5)]
	sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
	base := traffic.Gravity(g, traffic.GravityOpts{Nodes: eps, TotalRate: 1})
	scale := mcf.MaxFeasibleScale(g, base, mcf.RouteOpts{}, 0.05)
	if scale <= 0 {
		return nil, fmt.Errorf("geant: no routable load")
	}
	return &topogen.Instance{
		Config:    topogen.Config{Family: "geant", Size: g.NumNodes(), Seed: structSeed, PeakUtil: peakUtil},
		Topo:      g,
		Endpoints: eps,
		Shape:     base,
		TM:        base.Scale(scale * peakUtil),
		MaxScale:  scale,
	}, nil
}

// tenantTopology is the registration body's topology for a netSpec.
func tenantTopology(n netSpec) controld.TopologySpec {
	if n.Family == "geant" {
		return controld.TopologySpec{Builtin: "geant"}
	}
	return controld.TopologySpec{Gen: &controld.GenSpec{
		Family: n.Family, Size: n.Size, Seed: structSeed, MaxEndpoints: n.MaxEndpoints,
	}}
}
