package apps

import (
	"fmt"
	"math"
	"math/rand"

	"response/internal/stats"
	"response/internal/topo"
)

// WebOpts parameterizes the web workload of §5.4: one stub node runs
// the server, the remaining stub nodes run closed-loop clients fetching
// webFiles static files whose sizes follow the SPECweb2005
// online-banking distribution.
type WebOpts struct {
	Server  topo.NodeID
	Clients []topo.NodeID
	// PathFor returns the forward path used for (server → client)
	// responses; requests travel its reverse latency.
	PathFor func(server, client topo.NodeID) topo.Path
	// BackgroundUtil is the fraction of each path's bottleneck already
	// consumed by other traffic (same for all variants; default 0.5).
	BackgroundUtil float64
	Seed           int64
}

// The §5.4 web session: the static file population and the closed
// loop's length per client.
const (
	webFiles             = 100
	webRequestsPerClient = 250
)

func (o *WebOpts) defaults() {
	if o.BackgroundUtil == 0 {
		o.BackgroundUtil = 0.5
	}
}

// WebResult summarizes retrieval latencies.
type WebResult struct {
	Latencies []float64 // seconds, one per request
	Mean      float64
	P95       float64
}

// SpecwebBankingSizes generates a deterministic file-size population
// (bytes) approximating the SPECweb2005 online-banking static mix: a
// lognormal body (median ≈10 KB) with a small heavy tail capped at
// 1 MB.
func SpecwebBankingSizes(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]float64, n)
	for i := range sizes {
		// ln-median 10 KB, sigma 1.0; ~5 % of files get a 10× tail.
		s := 10e3 * math.Exp(rng.NormFloat64())
		if rng.Float64() < 0.05 {
			s *= 10
		}
		if s > 1e6 {
			s = 1e6
		}
		if s < 500 {
			s = 500
		}
		sizes[i] = s
	}
	return sizes
}

// RunWeb executes the closed-loop web workload analytically over the
// chosen paths: each retrieval costs one request RTT plus the transfer
// at the path's residual bottleneck bandwidth. The model is shared by
// every variant, so relative latency differences reflect only the path
// choice — exactly the quantity §5.4 reports (+≈9 % under REsPoNse).
func RunWeb(t *topo.Topology, opts WebOpts) (*WebResult, error) {
	opts.defaults()
	sizes := SpecwebBankingSizes(webFiles, opts.Seed)
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	res := &WebResult{}
	for _, c := range opts.Clients {
		p := opts.PathFor(opts.Server, c)
		if p.Empty() {
			return nil, fmt.Errorf("apps: no web path %d->%d", opts.Server, c)
		}
		rtt := 2 * p.Latency(t)
		avail := p.Bottleneck(t) * (1 - opts.BackgroundUtil)
		if avail <= 0 {
			return nil, fmt.Errorf("apps: zero residual bandwidth %d->%d", opts.Server, c)
		}
		for r := 0; r < webRequestsPerClient; r++ {
			size := sizes[rng.Intn(len(sizes))]
			lat := rtt + size*8/avail
			res.Latencies = append(res.Latencies, lat)
		}
	}
	res.Mean = stats.Mean(res.Latencies)
	res.P95 = stats.MustPercentile(res.Latencies, 95)
	return res, nil
}
