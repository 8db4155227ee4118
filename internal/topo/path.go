package topo

import (
	"fmt"
	"strings"
)

// Path is a loop-free sequence of arcs from an origin to a destination.
// The zero value is the empty path (origin == destination).
type Path struct {
	Arcs []ArcID
}

// NewPath builds a Path from arcs, verifying contiguity against t.
func NewPath(t *Topology, arcs []ArcID) (Path, error) {
	p := Path{Arcs: arcs}
	if err := p.Check(t); err != nil {
		return Path{}, err
	}
	return p, nil
}

// Empty reports whether the path has no arcs.
func (p Path) Empty() bool { return len(p.Arcs) == 0 }

// Len returns the hop count.
func (p Path) Len() int { return len(p.Arcs) }

// Origin returns the first node of the path (valid only if non-empty).
func (p Path) Origin(t *Topology) NodeID { return t.Arc(p.Arcs[0]).From }

// Destination returns the last node of the path (valid only if non-empty).
func (p Path) Destination(t *Topology) NodeID { return t.Arc(p.Arcs[len(p.Arcs)-1]).To }

// Nodes returns the node sequence along the path, origin first.
func (p Path) Nodes(t *Topology) []NodeID {
	if p.Empty() {
		return nil
	}
	out := make([]NodeID, 0, len(p.Arcs)+1)
	out = append(out, p.Origin(t))
	for _, aid := range p.Arcs {
		out = append(out, t.Arc(aid).To)
	}
	return out
}

// Latency returns the one-way propagation delay of the path in seconds.
func (p Path) Latency(t *Topology) float64 {
	var s float64
	for _, aid := range p.Arcs {
		s += t.Arc(aid).Latency
	}
	return s
}

// Bottleneck returns the minimum arc capacity along the path, or 0 for
// the empty path.
func (p Path) Bottleneck(t *Topology) float64 {
	if p.Empty() {
		return 0
	}
	m := t.Arc(p.Arcs[0]).Capacity
	for _, aid := range p.Arcs[1:] {
		if c := t.Arc(aid).Capacity; c < m {
			m = c
		}
	}
	return m
}

// SharedLinks counts physical links used by both p and q.
func (p Path) SharedLinks(t *Topology, q Path) int {
	used := make(map[LinkID]bool, len(p.Arcs))
	for _, aid := range p.Arcs {
		used[t.Arc(aid).Link] = true
	}
	n := 0
	for _, aid := range q.Arcs {
		if used[t.Arc(aid).Link] {
			n++
		}
	}
	return n
}

// Check verifies that the path is contiguous and simple (visits no node
// twice). An empty path is valid.
func (p Path) Check(t *Topology) error {
	if p.Empty() {
		return nil
	}
	for i, aid := range p.Arcs {
		if aid < 0 || int(aid) >= t.NumArcs() {
			return fmt.Errorf("path: arc %d out of range at hop %d", aid, i)
		}
	}
	seen := map[NodeID]bool{p.Origin(t): true}
	prev := p.Origin(t)
	for i, aid := range p.Arcs {
		a := t.Arc(aid)
		if a.From != prev {
			return fmt.Errorf("path: discontinuity at hop %d (%d != %d)", i, a.From, prev)
		}
		if seen[a.To] {
			return fmt.Errorf("path: revisits node %d at hop %d", a.To, i)
		}
		seen[a.To] = true
		prev = a.To
	}
	return nil
}

// ActiveUnder reports whether every router and link on the path is
// switched on in active.
func (p Path) ActiveUnder(t *Topology, active *ActiveSet) bool {
	if p.Empty() {
		return true
	}
	if !active.Router[p.Origin(t)] && t.Node(p.Origin(t)).Kind != KindHost {
		return false
	}
	for _, aid := range p.Arcs {
		a := t.Arc(aid)
		if !active.Link[a.Link] {
			return false
		}
		if t.Node(a.To).Kind != KindHost && !active.Router[a.To] {
			return false
		}
	}
	return true
}

// Equal reports whether two paths traverse the same arc sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Arcs) != len(q.Arcs) {
		return false
	}
	for i := range p.Arcs {
		if p.Arcs[i] != q.Arcs[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string key identifying the arc sequence,
// suitable for map keys and configuration fingerprints.
func (p Path) Key() string {
	var b strings.Builder
	for i, aid := range p.Arcs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", aid)
	}
	return b.String()
}

// Format renders the path as "A -> B -> C" using node names.
func (p Path) Format(t *Topology) string {
	if p.Empty() {
		return "(empty)"
	}
	nodes := p.Nodes(t)
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = t.Node(n).Name
	}
	return strings.Join(parts, " -> ")
}
