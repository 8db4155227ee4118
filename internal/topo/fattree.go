package topo

import "fmt"

// Bandwidth convenience constants (bits per second).
const (
	Kbps = 1e3
	Mbps = 1e6
	Gbps = 1e9
)

// FatTree describes a k-ary fat-tree datacenter network (Al-Fares et
// al., SIGCOMM 2008), the topology ElasticTree and the paper's Figures
// 2b, 4 and 8b evaluate on.
type FatTree struct {
	*Topology
	K     int
	Core  []NodeID   // (k/2)^2 core switches
	Aggr  [][]NodeID // [pod][k/2] aggregation switches
	Edge  [][]NodeID // [pod][k/2] edge switches
	Hosts [][]NodeID // [pod][k/2 * k/2] hosts
}

const (
	// fatTreeLinkCapacity is the bandwidth of every fat-tree link: the
	// commodity-hardware assumption of the fat-tree paper.
	fatTreeLinkCapacity = 1 * Gbps
	// fatTreeLinkLatency is the per-hop one-way delay in seconds, a
	// datacenter-scale value so that "a few RTTs" is sub-ms.
	fatTreeLinkLatency = 25e-6
)

// FatTreeOpts tunes a fat-tree build.
type FatTreeOpts struct {
	// WithHosts controls whether end hosts are attached below edge
	// switches. Path analysis at switch granularity can omit them.
	WithHosts bool
}

// NewFatTree builds a k-ary fat-tree. k must be even and >= 2.
func NewFatTree(k int, opts FatTreeOpts) (*FatTree, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree arity must be even and >= 2, got %d", k)
	}
	half := k / 2
	ft := &FatTree{
		Topology: New(fmt.Sprintf("fattree-k%d", k)),
		K:        k,
	}
	// Core layer: (k/2)^2 switches, grouped into k/2 groups of k/2.
	for g := 0; g < half; g++ {
		for i := 0; i < half; i++ {
			ft.Core = append(ft.Core, ft.AddNode(fmt.Sprintf("core-%d-%d", g, i), KindCore))
		}
	}
	for p := 0; p < k; p++ {
		aggr := make([]NodeID, half)
		edge := make([]NodeID, half)
		for i := 0; i < half; i++ {
			aggr[i] = ft.AddNode(fmt.Sprintf("aggr-%d-%d", p, i), KindAggr)
		}
		for i := 0; i < half; i++ {
			edge[i] = ft.AddNode(fmt.Sprintf("edge-%d-%d", p, i), KindEdge)
		}
		// Pod fabric: every edge switch connects to every aggregation
		// switch in its pod.
		for _, e := range edge {
			for _, a := range aggr {
				ft.AddLink(e, a, fatTreeLinkCapacity, fatTreeLinkLatency)
			}
		}
		// Uplinks: aggregation switch i serves core group i.
		for i, a := range aggr {
			for j := 0; j < half; j++ {
				ft.AddLink(a, ft.Core[i*half+j], fatTreeLinkCapacity, fatTreeLinkLatency)
			}
		}
		ft.Aggr = append(ft.Aggr, aggr)
		ft.Edge = append(ft.Edge, edge)
		if opts.WithHosts {
			hosts := make([]NodeID, 0, half*half)
			for ei, e := range edge {
				for h := 0; h < half; h++ {
					hid := ft.AddNode(fmt.Sprintf("host-%d-%d-%d", p, ei, h), KindHost)
					ft.AddLink(e, hid, fatTreeLinkCapacity, fatTreeLinkLatency)
					hosts = append(hosts, hid)
				}
			}
			ft.Hosts = append(ft.Hosts, hosts)
		} else {
			ft.Hosts = append(ft.Hosts, nil)
		}
	}
	return ft, nil
}

// AllHosts returns every host in pod order.
func (f *FatTree) AllHosts() []NodeID {
	var out []NodeID
	for _, hs := range f.Hosts {
		out = append(out, hs...)
	}
	return out
}

// PodOf returns the pod index of a host or pod switch, or -1 for core
// switches and unknown nodes.
func (f *FatTree) PodOf(n NodeID) int {
	for p := range f.Aggr {
		for _, id := range f.Aggr[p] {
			if id == n {
				return p
			}
		}
		for _, id := range f.Edge[p] {
			if id == n {
				return p
			}
		}
		for _, id := range f.Hosts[p] {
			if id == n {
				return p
			}
		}
	}
	return -1
}
