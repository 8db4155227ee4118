package traffic

import (
	"math"

	"response/internal/topo"
)

// Locality selects the fat-tree communication pattern of §5.1.
type Locality int

// Localities: Near keeps traffic within pods ("highly localized"); Far
// sends it across pods through the network core ("non-localized").
const (
	Near Locality = iota
	Far
)

// String names the locality for experiment labels.
func (l Locality) String() string {
	if l == Near {
		return "near"
	}
	return "far"
}

// SineOpts parameterizes the ElasticTree-style sine-wave demand used in
// Figures 4 and 8b: each flow's rate follows a sine over [0, sinePeak],
// mimicking diurnal variation in a datacenter.
type SineOpts struct {
	Locality Locality
	// Steps is the number of matrices per period (default 40).
	Steps int
}

// The sine wave's shape. The series is one full cycle.
const (
	// sinePeak is each flow's maximum rate: under the 1 Gb/s host links
	// so routing stays feasible at peak.
	sinePeak = 0.8 * topo.Gbps
	// sinePeriodSec is one full diurnal cycle in simulated seconds (the
	// figures use arbitrary time units).
	sinePeriodSec = 100.0
	// sineFloor is the valley rate as a fraction of peak: exactly zero
	// flows would leave nothing to route there.
	sineFloor float64 = 0.05
)

func (o *SineOpts) defaults() {
	if o.Steps == 0 {
		o.Steps = 40
	}
}

// SinePairs returns the (O,D) host pairs for the locality pattern:
// Near pairs each host with the next host under the same edge switch's
// pod; Far pairs each host with its counterpart in the next pod.
func SinePairs(ft *topo.FatTree, loc Locality) [][2]topo.NodeID {
	var pairs [][2]topo.NodeID
	k := ft.K
	switch loc {
	case Near:
		for p := 0; p < k; p++ {
			hosts := ft.Hosts[p]
			for i, h := range hosts {
				pairs = append(pairs, [2]topo.NodeID{h, hosts[(i+1)%len(hosts)]})
			}
		}
	case Far:
		for p := 0; p < k; p++ {
			hosts := ft.Hosts[p]
			next := ft.Hosts[(p+1)%k]
			for i, h := range hosts {
				pairs = append(pairs, [2]topo.NodeID{h, next[i%len(next)]})
			}
		}
	}
	return pairs
}

// SineSeries generates the sine-wave demand series on a fat-tree built
// with hosts.
func SineSeries(ft *topo.FatTree, opts SineOpts) *Series {
	opts.defaults()
	pairs := SinePairs(ft, opts.Locality)
	s := &Series{IntervalSec: sinePeriodSec / float64(opts.Steps)}
	for i := 0; i < opts.Steps; i++ {
		t := float64(i) * s.IntervalSec
		// Raised sine starting at the floor, peaking mid-period.
		x := 0.5 * (1 - math.Cos(2*math.Pi*t/sinePeriodSec))
		rate := sinePeak * (sineFloor + (1-sineFloor)*x)
		m := NewMatrix()
		for _, p := range pairs {
			m.Set(p[0], p[1], rate)
		}
		s.Matrices = append(s.Matrices, m)
	}
	return s
}
