package topo

// NewExample returns the 10-router topology of the paper's Figure 3,
// used for the Click testbed experiment (Figure 7): sources A, B, C
// reach K via the common always-on path E-H-K, the "upper" on-demand
// path D-G-K (reachable from A), and the "lower" on-demand path F-J-K
// (reachable from C).
//
// Every link is 10 Mbps with 16.67 ms one-way latency, matching the
// lartc-enforced emulation in §5.3.
type Example struct {
	*Topology
	A, B, C, D, E, F, G, H, J, K NodeID
}

// ExampleOpts tunes the Figure 3 build.
type ExampleOpts struct {
	// IncludeB controls whether router B is present; the Click
	// experiment runs "the topology shown in Figure 3 (excluding
	// router B)" with 9 routers.
	IncludeB bool
	// Capacity per link in bits/s (default 10 Mbps).
	Capacity float64
}

// exampleLatency is the one-way delay of every Figure 3 link, seconds.
const exampleLatency = 0.01667

// NewExample builds the Figure 3 topology.
func NewExample(opts ExampleOpts) *Example {
	if opts.Capacity == 0 {
		opts.Capacity = 10 * Mbps
	}
	e := &Example{Topology: New("fig3-example")}
	e.A = e.AddNode("A", KindRouter)
	if opts.IncludeB {
		e.B = e.AddNode("B", KindRouter)
	} else {
		e.B = -1
	}
	e.C = e.AddNode("C", KindRouter)
	e.D = e.AddNode("D", KindRouter)
	e.E = e.AddNode("E", KindRouter)
	e.F = e.AddNode("F", KindRouter)
	e.G = e.AddNode("G", KindRouter)
	e.H = e.AddNode("H", KindRouter)
	e.J = e.AddNode("J", KindRouter)
	e.K = e.AddNode("K", KindRouter)

	add := func(a, b NodeID) { e.AddLink(a, b, opts.Capacity, exampleLatency) }
	add(e.A, e.D) // feeds the upper on-demand path
	add(e.A, e.E)
	if opts.IncludeB {
		add(e.B, e.E)
	}
	add(e.C, e.E)
	add(e.C, e.F) // feeds the lower on-demand path
	add(e.D, e.G) // upper: D-G-K
	add(e.E, e.H) // middle (always-on): E-H-K
	add(e.F, e.J) // lower: F-J-K
	add(e.G, e.K)
	add(e.H, e.K)
	add(e.J, e.K)
	return e
}

// MiddlePath returns the always-on path from src through E-H-K.
func (e *Example) MiddlePath(src NodeID) Path {
	var arcs []ArcID
	for _, hop := range [][2]NodeID{{src, e.E}, {e.E, e.H}, {e.H, e.K}} {
		id, ok := e.ArcBetween(hop[0], hop[1])
		if !ok {
			return Path{}
		}
		arcs = append(arcs, id)
	}
	return Path{Arcs: arcs}
}

// UpperPath returns A-D-G-K (valid for src A).
func (e *Example) UpperPath() Path {
	return e.mustPath([][2]NodeID{{e.A, e.D}, {e.D, e.G}, {e.G, e.K}})
}

// LowerPath returns C-F-J-K (valid for src C).
func (e *Example) LowerPath() Path {
	return e.mustPath([][2]NodeID{{e.C, e.F}, {e.F, e.J}, {e.J, e.K}})
}

func (e *Example) mustPath(hops [][2]NodeID) Path {
	var arcs []ArcID
	for _, h := range hops {
		id, ok := e.ArcBetween(h[0], h[1])
		if !ok {
			panic("topo: example path hop missing")
		}
		arcs = append(arcs, id)
	}
	return Path{Arcs: arcs}
}
