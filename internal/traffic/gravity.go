package traffic

import "response/internal/topo"

// GravityOpts parameterizes the capacity-based gravity model of §5.1:
// the incoming/outgoing flow of each PoP is proportional to the
// combined capacity of its adjacent links.
type GravityOpts struct {
	// Nodes restricts origins/destinations; default: all non-host nodes.
	Nodes []topo.NodeID
	// TotalRate is the aggregate demand to distribute (bits/s).
	TotalRate float64
}

// Gravity builds a traffic matrix from the capacity-based gravity
// model: rate(o,d) ∝ w(o)·w(d) with w(n) = Σ capacity of n's links,
// normalized to TotalRate over every ordered pair of Nodes.
func Gravity(t *topo.Topology, opts GravityOpts) *Matrix {
	nodes := opts.Nodes
	if nodes == nil {
		for _, n := range t.Nodes() {
			if n.Kind != topo.KindHost {
				nodes = append(nodes, n.ID)
			}
		}
	}
	w := make(map[topo.NodeID]float64, len(nodes))
	for _, id := range nodes {
		var c float64
		for _, aid := range t.Out(id) {
			c += t.Arc(aid).Capacity
		}
		w[id] = c
	}
	// Unnormalized weights for every pair.
	m := NewMatrix()
	var sum float64
	for _, o := range nodes {
		for _, d := range nodes {
			if o == d {
				continue
			}
			g := w[o] * w[d]
			m.Set(o, d, g)
			sum += g
		}
	}
	if sum == 0 || opts.TotalRate == 0 {
		return m
	}
	return m.Scale(opts.TotalRate / sum)
}

// HostGravity is Gravity restricted to host nodes, for datacenter
// topologies where demand originates at servers.
func HostGravity(t *topo.Topology, totalRate float64) *Matrix {
	var hosts []topo.NodeID
	for _, n := range t.Nodes() {
		if n.Kind == topo.KindHost {
			hosts = append(hosts, n.ID)
		}
	}
	return Gravity(t, GravityOpts{Nodes: hosts, TotalRate: totalRate})
}
