// Package topo models the networks REsPoNse operates on: directed-arc
// multigraphs of routers/switches/hosts annotated with link capacities
// and propagation latencies.
//
// Links are physical and bidirectional — they are created in pairs of
// directed arcs sharing one LinkID — because a link "cannot be
// half-powered" (paper §2.2.1): power state is tracked per link, routing
// per arc.
//
// The package also ships builders for every topology the paper
// evaluates: fat-trees (§5.1 datacenter), an embedded GÉANT map, Rocketfuel
// PoP-level approximations of Abovenet and Genuity, the hierarchical
// Italian "PoP-access" ISP, and the 10-router example of Figure 3.
package topo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
)

// NodeID identifies a node (router, switch, or host) within a Topology.
type NodeID int

// ArcID identifies a directed arc within a Topology.
type ArcID int

// LinkID identifies an undirected physical link (a pair of arcs).
type LinkID int

// Kind classifies nodes. Power models and builders use it: hosts draw
// no network power, and datacenter layers get layer-specific roles.
type Kind uint8

// Node kinds.
const (
	KindRouter Kind = iota // generic ISP router (PoP)
	KindCore               // datacenter core switch / ISP core
	KindAggr               // datacenter aggregation switch / ISP backbone
	KindEdge               // datacenter edge (ToR) switch / ISP metro
	KindHost               // end host: origin/destination only, no power
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindRouter:
		return "router"
	case KindCore:
		return "core"
	case KindAggr:
		return "aggr"
	case KindEdge:
		return "edge"
	case KindHost:
		return "host"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is a vertex of the topology.
type Node struct {
	ID   NodeID
	Name string
	Kind Kind
	// KmEast/KmNorth give a coarse planar embedding in kilometres;
	// builders use it to derive propagation latencies and the gravity
	// traffic model may use it for locality. Zero for abstract nodes.
	KmEast, KmNorth float64
}

// Arc is one direction of a physical link.
type Arc struct {
	ID   ArcID
	From NodeID
	To   NodeID
	Link LinkID
	// Capacity is the arc bandwidth in bits per second.
	Capacity float64
	// Latency is the one-way propagation delay in seconds.
	Latency float64
}

// Link is an undirected physical link: the canonical pairing of the two
// arcs between its endpoints.
type Link struct {
	ID       LinkID
	A, B     NodeID // A < B
	AB, BA   ArcID  // arc A->B and arc B->A
	LengthKm float64
}

// Topology is an immutable-after-build network graph. Build one with
// New and the Add* methods, then treat it as read-only; all algorithms
// in this module share Topology values across goroutines.
type Topology struct {
	Name   string
	nodes  []Node
	arcs   []Arc
	links  []Link
	out    [][]ArcID
	in     [][]ArcID
	byPair map[[2]NodeID]ArcID
}

// New returns an empty topology with the given name.
func New(name string) *Topology {
	return &Topology{Name: name, byPair: make(map[[2]NodeID]ArcID)}
}

// AddNode appends a node and returns its ID.
func (t *Topology) AddNode(name string, kind Kind) NodeID {
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{ID: id, Name: name, Kind: kind})
	t.out = append(t.out, nil)
	t.in = append(t.in, nil)
	return id
}

// AddNodeAt appends a node with a planar position in kilometres.
func (t *Topology) AddNodeAt(name string, kind Kind, kmEast, kmNorth float64) NodeID {
	id := t.AddNode(name, kind)
	t.nodes[id].KmEast = kmEast
	t.nodes[id].KmNorth = kmNorth
	return id
}

// speedKmPerSec is the signal propagation speed in fibre (≈2/3 c).
const speedKmPerSec = 200000.0

// AddLink creates a bidirectional link between a and b with symmetric
// capacity (bits/s) and one-way latency (seconds), returning its LinkID.
// It panics on self-loops or duplicate (a,b) pairs: builders are static
// data and an invalid one is a programming error.
func (t *Topology) AddLink(a, b NodeID, capacity, latency float64) LinkID {
	return t.AddAsymLink(a, b, capacity, capacity, latency)
}

// AddAsymLink is AddLink with per-direction capacities (paper §2.2.1:
// Ci→j = Cj→i need not hold).
func (t *Topology) AddAsymLink(a, b NodeID, capAB, capBA, latency float64) LinkID {
	if a == b {
		panic(fmt.Sprintf("topo: self-loop on node %d", a))
	}
	if _, dup := t.byPair[[2]NodeID{a, b}]; dup {
		panic(fmt.Sprintf("topo: duplicate link %d-%d", a, b))
	}
	lo, hi := a, b
	capLo, capHi := capAB, capBA
	if lo > hi {
		lo, hi = hi, lo
		capLo, capHi = capHi, capLo
	}
	lid := LinkID(len(t.links))
	ab := t.addArc(lo, hi, capLo, latency, lid)
	ba := t.addArc(hi, lo, capHi, latency, lid)
	t.links = append(t.links, Link{
		ID: lid, A: lo, B: hi, AB: ab, BA: ba,
		LengthKm: latency * speedKmPerSec,
	})
	return lid
}

// AddLinkKm creates a link whose latency is derived from the planar
// distance between the endpoints (plus a 0.1 ms forwarding floor).
func (t *Topology) AddLinkKm(a, b NodeID, capacity float64) LinkID {
	d := t.DistanceKm(a, b)
	lat := d/speedKmPerSec + 0.0001
	return t.AddLink(a, b, capacity, lat)
}

func (t *Topology) addArc(from, to NodeID, capacity, latency float64, link LinkID) ArcID {
	id := ArcID(len(t.arcs))
	t.arcs = append(t.arcs, Arc{
		ID: id, From: from, To: to, Link: link,
		Capacity: capacity, Latency: latency,
	})
	t.out[from] = append(t.out[from], id)
	t.in[to] = append(t.in[to], id)
	t.byPair[[2]NodeID{from, to}] = id
	return id
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumArcs returns the directed arc count (2× the link count).
func (t *Topology) NumArcs() int { return len(t.arcs) }

// NumLinks returns the undirected link count.
func (t *Topology) NumLinks() int { return len(t.links) }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// Arc returns the arc with the given ID.
func (t *Topology) Arc(id ArcID) Arc { return t.arcs[id] }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Nodes returns a read-only view of all nodes.
func (t *Topology) Nodes() []Node { return t.nodes }

// Arcs returns a read-only view of all arcs.
func (t *Topology) Arcs() []Arc { return t.arcs }

// Links returns a read-only view of all links.
func (t *Topology) Links() []Link { return t.links }

// Out returns the IDs of arcs leaving n.
func (t *Topology) Out(n NodeID) []ArcID { return t.out[n] }

// In returns the IDs of arcs entering n.
func (t *Topology) In(n NodeID) []ArcID { return t.in[n] }

// ArcBetween returns the arc from a to b, if one exists.
func (t *Topology) ArcBetween(a, b NodeID) (ArcID, bool) {
	id, ok := t.byPair[[2]NodeID{a, b}]
	return id, ok
}

// Reverse returns the opposite-direction arc of a.
func (t *Topology) Reverse(a ArcID) ArcID {
	l := t.links[t.arcs[a].Link]
	if l.AB == a {
		return l.BA
	}
	return l.AB
}

// Degree returns the number of links incident to n.
func (t *Topology) Degree(n NodeID) int { return len(t.out[n]) }

// DistanceKm returns the planar distance between two nodes.
func (t *Topology) DistanceKm(a, b NodeID) float64 {
	na, nb := t.nodes[a], t.nodes[b]
	dx := na.KmEast - nb.KmEast
	dy := na.KmNorth - nb.KmNorth
	return math.Sqrt(dx*dx + dy*dy)
}

// NodesOfKind returns the IDs of all nodes with the given kind, in ID order.
func (t *Topology) NodesOfKind(kind Kind) []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Kind == kind {
			out = append(out, n.ID)
		}
	}
	return out
}

// NodeByName returns the first node with the given name.
func (t *Topology) NodeByName(name string) (NodeID, bool) {
	for _, n := range t.nodes {
		if n.Name == name {
			return n.ID, true
		}
	}
	return 0, false
}

// Validate checks structural invariants: arc endpoints in range,
// link/arc pairing consistency, positive capacities, non-negative
// latencies, and no duplicate links. It returns the first violation.
func (t *Topology) Validate() error {
	for _, a := range t.arcs {
		if a.From < 0 || int(a.From) >= len(t.nodes) || a.To < 0 || int(a.To) >= len(t.nodes) {
			return fmt.Errorf("topo %s: arc %d endpoint out of range", t.Name, a.ID)
		}
		if a.From == a.To {
			return fmt.Errorf("topo %s: arc %d is a self-loop", t.Name, a.ID)
		}
		if a.Capacity <= 0 {
			return fmt.Errorf("topo %s: arc %d has non-positive capacity", t.Name, a.ID)
		}
		if a.Latency < 0 {
			return fmt.Errorf("topo %s: arc %d has negative latency", t.Name, a.ID)
		}
		if int(a.Link) >= len(t.links) {
			return fmt.Errorf("topo %s: arc %d references missing link %d", t.Name, a.ID, a.Link)
		}
	}
	for _, l := range t.links {
		if l.A >= l.B {
			return fmt.Errorf("topo %s: link %d not canonical (A<B)", t.Name, l.ID)
		}
		ab, ba := t.arcs[l.AB], t.arcs[l.BA]
		if ab.From != l.A || ab.To != l.B || ba.From != l.B || ba.To != l.A {
			return fmt.Errorf("topo %s: link %d arc pairing inconsistent", t.Name, l.ID)
		}
		if ab.Link != l.ID || ba.Link != l.ID {
			return fmt.Errorf("topo %s: link %d back-reference broken", t.Name, l.ID)
		}
	}
	return nil
}

// Connected reports whether all non-host nodes are reachable from each
// other over the full topology (ignoring power state).
func (t *Topology) Connected() bool {
	if len(t.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(t.nodes))
	var stack []NodeID
	stack = append(stack, 0)
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, aid := range t.out[n] {
			to := t.arcs[aid].To
			if !seen[to] {
				seen[to] = true
				count++
				stack = append(stack, to)
			}
		}
	}
	return count == len(t.nodes)
}

// ConnectedUnder reports whether every node that is switched on in
// active can reach every other switched-on node using only active
// routers and links. Hosts are exempt: a host is reachable iff its
// attachment link is active.
func (t *Topology) ConnectedUnder(active *ActiveSet) bool {
	var start NodeID = -1
	want := 0
	for _, n := range t.nodes {
		if n.Kind == KindHost {
			continue
		}
		if active.Router[n.ID] {
			want++
			if start < 0 {
				start = n.ID
			}
		}
	}
	if want <= 1 {
		return true
	}
	seen := make([]bool, len(t.nodes))
	seen[start] = true
	got := 1
	stack := []NodeID{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, aid := range t.out[n] {
			a := t.arcs[aid]
			if !active.Link[a.Link] {
				continue
			}
			to := a.To
			if t.nodes[to].Kind == KindHost || !active.Router[to] || seen[to] {
				continue
			}
			seen[to] = true
			got++
			stack = append(stack, to)
		}
	}
	return got == want
}

// MaxRTT returns the largest round-trip propagation delay between any
// pair of non-host nodes along shortest-latency paths. REsPoNseTE uses
// it as its probe period T (paper §4.4).
func (t *Topology) MaxRTT() float64 {
	n := len(t.nodes)
	const inf = 1e18
	var worst float64
	for _, src := range t.nodes {
		if src.Kind == KindHost {
			continue
		}
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = inf
		}
		dist[src.ID] = 0
		// Dijkstra without a heap: topologies here are small enough
		// that O(n²) per source is fine and avoids an import cycle
		// with the spf package.
		done := make([]bool, n)
		for {
			best, bi := inf, -1
			for i := 0; i < n; i++ {
				if !done[i] && dist[i] < best {
					best, bi = dist[i], i
				}
			}
			if bi < 0 {
				break
			}
			done[bi] = true
			for _, aid := range t.out[bi] {
				a := t.arcs[aid]
				if nd := dist[bi] + a.Latency; nd < dist[a.To] {
					dist[a.To] = nd
				}
			}
		}
		for _, dst := range t.nodes {
			if dst.Kind == KindHost || dist[dst.ID] >= inf {
				continue
			}
			if rtt := 2 * dist[dst.ID]; rtt > worst {
				worst = rtt
			}
		}
	}
	return worst
}

// Fingerprint hashes the full structure of the topology — its name,
// every node (name, kind) and every arc (endpoints, link pairing,
// capacity, latency) — into a stable 64-bit value. Plan artifacts embed
// it so a precomputed routing table can only be installed against the
// topology it was computed for.
func (t *Topology) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	io.WriteString(h, t.Name)
	u64(uint64(len(t.nodes)))
	for _, n := range t.nodes {
		io.WriteString(h, n.Name)
		h.Write([]byte{byte(n.Kind)})
	}
	u64(uint64(len(t.arcs)))
	for _, a := range t.arcs {
		u64(uint64(a.From))
		u64(uint64(a.To))
		u64(uint64(a.Link))
		u64(math.Float64bits(a.Capacity))
		u64(math.Float64bits(a.Latency))
	}
	return h.Sum64()
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("%s: %d nodes, %d links", t.Name, len(t.nodes), len(t.links))
}

// SortedNodeIDs returns all node IDs in ascending order. Useful for
// deterministic iteration in tests and experiments.
func (t *Topology) SortedNodeIDs() []NodeID {
	ids := make([]NodeID, len(t.nodes))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
