package topo

import "fmt"

// The PoP-access hierarchy (§5.1) and its link plant: capacity thins a
// level at a time from the core mesh down, and every hop is
// national-scale.
const (
	popCores            = 4 // fully meshed core routers
	popBackbonePerCore  = 2 // backbone routers homed per core
	popMetroPerBackbone = 2 // metro routers homed per backbone
	popCoreCapacity     = 10 * Gbps
	popBackboneCapacity = 2.5 * Gbps
	popMetroCapacity    = 1 * Gbps
	popLinkLatency      = 0.002 // one-way seconds per link
)

// PopAccess is the built hierarchical topology with its layers exposed.
type PopAccess struct {
	*Topology
	Core     []NodeID
	Backbone []NodeID
	Metro    []NodeID
}

// NewPopAccess builds the hierarchical Italian-ISP-style topology of
// Chiaraviglio et al. that the paper calls "PoP-access" (§5.1): a fully
// meshed core, a backbone level dual-homed to the core, and a metro
// level dual-homed to the backbone. The paper restricts itself to these
// top three levels (feeder nodes must stay powered). Redundancy: cores
// form a full mesh; each backbone router is homed to two distinct
// cores; each metro router is homed to two distinct backbone routers.
func NewPopAccess() *PopAccess {
	p := &PopAccess{Topology: New("pop-access")}
	for i := 0; i < popCores; i++ {
		p.Core = append(p.Core, p.AddNode(fmt.Sprintf("core-%d", i), KindCore))
	}
	for i := 0; i < popCores; i++ {
		for j := i + 1; j < popCores; j++ {
			p.AddLink(p.Core[i], p.Core[j], popCoreCapacity, popLinkLatency)
		}
	}
	nb := popCores * popBackbonePerCore
	for i := 0; i < nb; i++ {
		b := p.AddNode(fmt.Sprintf("backbone-%d", i), KindAggr)
		p.Backbone = append(p.Backbone, b)
		// Dual-home to the "parent" core and the next one around the ring.
		c0 := p.Core[i%popCores]
		c1 := p.Core[(i+1)%popCores]
		p.AddLink(b, c0, popBackboneCapacity, popLinkLatency)
		p.AddLink(b, c1, popBackboneCapacity, popLinkLatency)
	}
	nm := nb * popMetroPerBackbone
	for i := 0; i < nm; i++ {
		m := p.AddNode(fmt.Sprintf("metro-%d", i), KindEdge)
		p.Metro = append(p.Metro, m)
		b0 := p.Backbone[i%nb]
		b1 := p.Backbone[(i+1)%nb]
		p.AddLink(m, b0, popMetroCapacity, popLinkLatency)
		p.AddLink(m, b1, popMetroCapacity, popLinkLatency)
	}
	return p
}
