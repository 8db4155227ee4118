package topo

import "fmt"

// PopAccessOpts parameterizes the hierarchical Italian-ISP-style
// topology of Chiaraviglio et al. that the paper calls "PoP-access"
// (§5.1): a fully meshed core, a backbone level dual-homed to the core,
// and a metro level dual-homed to the backbone. The paper restricts
// itself to these top three levels (feeder nodes must stay powered).
type PopAccessOpts struct {
	Cores            int // fully meshed core routers (default 4)
	BackbonePerCore  int // backbone routers homed per core (default 2)
	MetroPerBackbone int // metro routers homed per backbone (default 2)
}

// The PoP-access link plant (§5.1): capacity thins a level at a time
// from the core mesh down, and every hop is national-scale.
const (
	popCoreCapacity     = 10 * Gbps
	popBackboneCapacity = 2.5 * Gbps
	popMetroCapacity    = 1 * Gbps
	popLinkLatency      = 0.002 // one-way seconds per link
)

func (o *PopAccessOpts) defaults() {
	if o.Cores == 0 {
		o.Cores = 4
	}
	if o.BackbonePerCore == 0 {
		o.BackbonePerCore = 2
	}
	if o.MetroPerBackbone == 0 {
		o.MetroPerBackbone = 2
	}
}

// PopAccess is the built hierarchical topology with its layers exposed.
type PopAccess struct {
	*Topology
	Core     []NodeID
	Backbone []NodeID
	Metro    []NodeID
}

// NewPopAccess builds the PoP-access topology. Redundancy: cores form a
// full mesh; each backbone router is homed to two distinct cores; each
// metro router is homed to two distinct backbone routers.
func NewPopAccess(opts PopAccessOpts) *PopAccess {
	opts.defaults()
	p := &PopAccess{Topology: New("pop-access")}
	for i := 0; i < opts.Cores; i++ {
		p.Core = append(p.Core, p.AddNode(fmt.Sprintf("core-%d", i), KindCore))
	}
	for i := 0; i < opts.Cores; i++ {
		for j := i + 1; j < opts.Cores; j++ {
			p.AddLink(p.Core[i], p.Core[j], popCoreCapacity, popLinkLatency)
		}
	}
	nb := opts.Cores * opts.BackbonePerCore
	for i := 0; i < nb; i++ {
		b := p.AddNode(fmt.Sprintf("backbone-%d", i), KindAggr)
		p.Backbone = append(p.Backbone, b)
		// Dual-home to the "parent" core and the next one around the ring.
		c0 := p.Core[i%opts.Cores]
		c1 := p.Core[(i+1)%opts.Cores]
		p.AddLink(b, c0, popBackboneCapacity, popLinkLatency)
		p.AddLink(b, c1, popBackboneCapacity, popLinkLatency)
	}
	nm := nb * opts.MetroPerBackbone
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
