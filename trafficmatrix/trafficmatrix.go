// Package trafficmatrix is the public traffic-model surface of the
// response module: per-pair demand matrices, the capacity-based gravity
// estimate, and the synthetic diurnal/sine/volatile series the paper's
// experiments replay.
//
// It is a thin re-export layer over the module's internal traffic
// model; matrices built here feed response.Planner options and
// response.Plan.Evaluate directly.
package trafficmatrix

import (
	"response/internal/traffic"
	"response/topology"
)

// Demand and series types.
type (
	// Matrix gives the offered rate of every origin-destination pair.
	Matrix = traffic.Matrix
	// Demand is one (origin, destination, rate) entry of a matrix.
	Demand = traffic.Demand
	// Series is a time-ordered sequence of matrices at a fixed interval.
	Series = traffic.Series
	// GravityOpts parameterizes Gravity.
	GravityOpts = traffic.GravityOpts
	// SineOpts parameterizes SineSeries.
	SineOpts = traffic.SineOpts
	// Locality selects where sine-wave datacenter traffic flows.
	Locality = traffic.Locality
	// DiurnalOpts parameterizes DiurnalSeries.
	DiurnalOpts = traffic.DiurnalOpts
	// VolatileOpts parameterizes VolatileSeries.
	VolatileOpts = traffic.VolatileOpts
)

// Sine-wave traffic localities: Near keeps traffic within fat-tree
// pods, Far sends it across the core.
const (
	Near = traffic.Near
	Far  = traffic.Far
)

// New returns an empty matrix; fill it with Matrix.Set/Add.
func New() *Matrix { return traffic.NewMatrix() }

// Uniform returns a matrix with the same rate between every ordered
// pair of the given nodes (the paper's ε-demand when rate is tiny).
func Uniform(nodes []topology.NodeID, rate float64) *Matrix {
	return traffic.Uniform(nodes, rate)
}

// Gravity estimates a matrix from the topology alone: each pair's rate
// is proportional to the product of its endpoints' attached capacity
// (§5.1 uses it when measured matrices are unavailable).
func Gravity(t *topology.Topology, opts GravityOpts) *Matrix {
	return traffic.Gravity(t, opts)
}

// HostGravity is Gravity restricted to a topology's hosts.
func HostGravity(t *topology.Topology, totalRate float64) *Matrix {
	return traffic.HostGravity(t, totalRate)
}

// SineSeries builds the ElasticTree-style sinusoidal datacenter demand
// of Figures 4 and 8b.
func SineSeries(ft *topology.FatTree, opts SineOpts) *Series {
	return traffic.SineSeries(ft, opts)
}

// DiurnalSeries modulates base with a day/night profile plus jitter,
// the shape of the paper's ISP traces.
func DiurnalSeries(base *Matrix, opts DiurnalOpts) *Series {
	return traffic.DiurnalSeries(base, opts)
}

// VolatileSeries modulates base with heavy-tailed per-flow churn.
func VolatileSeries(base *Matrix, opts VolatileOpts) *Series {
	return traffic.VolatileSeries(base, opts)
}

// RelativeChange returns the paper's §3.1 matrix-deviation metric
// between two matrices.
func RelativeChange(a, b *Matrix) float64 { return traffic.RelativeChange(a, b) }
