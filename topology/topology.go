// Package topology is the public network-model surface of the response
// module: directed-arc multigraphs of routers, switches and hosts
// annotated with link capacities and propagation latencies, plus
// builders for every topology the paper evaluates.
//
// It is a thin re-export layer over the module's internal model, so
// values constructed here flow directly into response.Planner,
// response/trafficmatrix and response/simulate.
package topology

import "response/internal/topo"

// Core graph types.
type (
	// Topology is an immutable-after-build network graph.
	Topology = topo.Topology
	// Node is a vertex: a router, switch or host.
	Node = topo.Node
	// NodeID identifies a node within a Topology.
	NodeID = topo.NodeID
	// Arc is one direction of a physical link.
	Arc = topo.Arc
	// ArcID identifies a directed arc.
	ArcID = topo.ArcID
	// Link is an undirected physical link (a pair of arcs).
	Link = topo.Link
	// LinkID identifies a physical link.
	LinkID = topo.LinkID
	// Kind classifies nodes (router, core, aggregation, edge, host).
	Kind = topo.Kind
	// Path is a loop-free arc sequence between two nodes.
	Path = topo.Path
	// ActiveSet records the power state of every router and link.
	ActiveSet = topo.ActiveSet
	// FatTree is a k-ary fat-tree datacenter topology with layer maps.
	FatTree = topo.FatTree
	// FatTreeOpts parameterizes NewFatTree.
	FatTreeOpts = topo.FatTreeOpts
	// Example is the 10-router topology of the paper's Figure 3.
	Example = topo.Example
	// ExampleOpts parameterizes NewExample.
	ExampleOpts = topo.ExampleOpts
	// PopAccess is the hierarchical Italian PoP-access ISP topology.
	PopAccess = topo.PopAccess
	// PopAccessOpts parameterizes NewPopAccess.
	PopAccessOpts = topo.PopAccessOpts
)

// Node kinds.
const (
	KindRouter = topo.KindRouter
	KindCore   = topo.KindCore
	KindAggr   = topo.KindAggr
	KindEdge   = topo.KindEdge
	KindHost   = topo.KindHost
)

// Bandwidth units in bits per second.
const (
	Kbps = topo.Kbps
	Mbps = topo.Mbps
	Gbps = topo.Gbps
)

// New returns an empty topology with the given name; grow it with the
// Topology.AddNode/AddLink builder methods.
func New(name string) *Topology { return topo.New(name) }

// NewPath builds a Path from arcs, verifying contiguity against t.
func NewPath(t *Topology, arcs []ArcID) (Path, error) { return topo.NewPath(t, arcs) }

// AllOn returns an ActiveSet with every element powered.
func AllOn(t *Topology) *ActiveSet { return topo.AllOn(t) }

// AllOff returns an ActiveSet with every element unpowered.
func AllOff(t *Topology) *ActiveSet { return topo.AllOff(t) }

// Builtin builds the fixed ISP map called name ("geant", "abovenet",
// "genuity"); an unknown name's error lists them.
func Builtin(name string) (*Topology, error) { return topo.Builtin(name) }

// NewGeant returns the 23-PoP GÉANT European research network.
func NewGeant() *Topology { return topo.NewGeant() }

// NewAbovenet returns the Rocketfuel PoP-level Abovenet approximation.
func NewAbovenet() *Topology { return topo.NewAbovenet() }

// NewGenuity returns the Rocketfuel PoP-level Genuity approximation.
func NewGenuity() *Topology { return topo.NewGenuity() }

// NewFatTree returns a k-ary fat-tree (k even, ≥ 2), optionally with
// hosts attached to its edge switches.
func NewFatTree(k int, opts FatTreeOpts) (*FatTree, error) { return topo.NewFatTree(k, opts) }

// NewExample returns the 10-router example topology of Figure 3.
func NewExample(opts ExampleOpts) *Example { return topo.NewExample(opts) }

// NewPopAccess returns the hierarchical PoP-access ISP topology.
func NewPopAccess(opts PopAccessOpts) *PopAccess { return topo.NewPopAccess(opts) }
