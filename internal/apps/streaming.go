// Package apps runs the paper's application-level workloads (§5.4) over
// the fluid simulator: a BulletMedia-like live streaming session with
// block play deadlines (Figure 9) and a SPECweb2005-banking-like web
// workload, both comparing REsPoNse-chosen paths against OSPF-InvCap.
package apps

import (
	"fmt"
	"sort"

	"response/internal/sim"
	"response/internal/stats"
	"response/internal/te"
	"response/internal/topo"
)

// StreamingOpts parameterizes the live-streaming experiment: a source
// streams a file at streamBitRate to every client; a client can play
// the video when media blocks arrive before their play deadlines.
type StreamingOpts struct {
	Source topo.NodeID
	// Phase1Clients join at t=0; Phase2Clients join at Phase2At
	// (§5.4: 50 participants, then 50 more after 300 s).
	Phase1Clients []topo.NodeID
	Phase2Clients []topo.NodeID
	Phase2At      float64
	// Duration is the total experiment length (default Phase2At+300).
	Duration float64
	// PathsFor supplies the installed path levels per (source,client)
	// pair: REsPoNse tables or a single-element slice for OSPF.
	PathsFor func(o, d topo.NodeID) []topo.Path
	// Sim configures the underlying simulator.
	Sim sim.Opts
	// TE, when non-nil, runs a REsPoNseTE controller over the flows.
	TE *te.Opts
	// Background adds non-streaming load sharing the network (§5.4
	// runs the workloads at network utilization levels, not on an
	// idle network).
	Background []BackgroundFlow
}

// BackgroundFlow is ambient traffic competing with the application.
type BackgroundFlow struct {
	O, D  topo.NodeID
	Rate  float64
	Paths []topo.Path
}

// The §5.4 BulletMedia session.
const (
	// streamBitRate is the stream rate in bits/s.
	streamBitRate float64 = 600 * topo.Kbps
	// streamBlockSec is one media block's duration in seconds.
	streamBlockSec float64 = 1
	// streamStartupSec is the client-side buffering delay before
	// playback.
	streamStartupSec float64 = 5
	// streamSamplePeriod is the cumulative-byte sampling period.
	streamSamplePeriod = streamBlockSec / 4
)

func (o *StreamingOpts) defaults() {
	if o.Phase2At == 0 {
		o.Phase2At = 300
	}
	if o.Duration == 0 {
		o.Duration = o.Phase2At + 300
	}
}

// ClientResult summarizes one client's playback.
type ClientResult struct {
	Client      topo.NodeID
	JoinAt      float64
	Blocks      int
	OnTime      int
	PlayablePct float64
	// MeanRetrievalLatency is the mean time from a block becoming
	// available at the source to its complete arrival.
	MeanRetrievalLatency float64
}

// StreamingResult aggregates the experiment.
type StreamingResult struct {
	Clients []ClientResult
	// PlayableBox summarizes per-client playable percentages — the
	// boxplot bars of Figure 9.
	PlayableBox stats.Boxplot
	// MeanBlockLatency averages retrieval latency over all clients.
	MeanBlockLatency float64
}

type streamClient struct {
	node   topo.NodeID
	joinAt float64
	flow   *sim.Flow
	bytes  []sim.Sample
	// propDelay is the share-weighted one-way propagation delay of the
	// client's paths at the end of the run; the fluid byte counter has
	// no notion of it, so scoring adds it to every block arrival.
	propDelay float64
}

// RunStreaming executes the streaming workload and scores playback.
func RunStreaming(t *topo.Topology, opts StreamingOpts) (*StreamingResult, error) {
	opts.defaults()
	s := sim.New(t, opts.Sim)
	var ctrl *te.Controller
	if opts.TE != nil {
		ctrl = te.NewController(s, *opts.TE)
	}

	for _, b := range opts.Background {
		if len(b.Paths) == 0 || b.Rate <= 0 {
			continue
		}
		f, err := s.AddFlow(b.O, b.D, b.Rate, b.Paths)
		if err != nil {
			return nil, fmt.Errorf("apps: background %d->%d: %w", b.O, b.D, err)
		}
		if ctrl != nil {
			ctrl.Manage(f)
		}
	}

	var clients []*streamClient
	join := func(node topo.NodeID, at float64) error {
		paths := opts.PathsFor(opts.Source, node)
		if len(paths) == 0 {
			return fmt.Errorf("apps: no path %d->%d", opts.Source, node)
		}
		c := &streamClient{node: node, joinAt: at}
		clients = append(clients, c)
		s.Schedule(at, func() {
			f, err := s.AddFlow(opts.Source, node, streamBitRate, paths)
			if err != nil {
				return
			}
			c.flow = f
			if ctrl != nil {
				ctrl.Manage(f)
			}
		})
		return nil
	}
	for _, n := range opts.Phase1Clients {
		if err := join(n, 0); err != nil {
			return nil, err
		}
	}
	for _, n := range opts.Phase2Clients {
		if err := join(n, opts.Phase2At); err != nil {
			return nil, err
		}
	}
	if ctrl != nil {
		ctrl.Start()
	}
	// Sample cumulative bytes.
	s.SampleEvery(streamSamplePeriod, opts.Duration, func(now float64) {
		for _, c := range clients {
			if c.flow == nil {
				continue
			}
			c.bytes = append(c.bytes, sim.Sample{Time: now, Value: s.Bytes(c.flow)})
		}
	})
	s.Run(opts.Duration)
	for _, c := range clients {
		if c.flow == nil {
			continue
		}
		c.propDelay = shareWeightedLatency(t, c.flow)
	}

	res := &StreamingResult{}
	var playable []float64
	var latSum float64
	var latN int
	blockBytes := streamBitRate / 8 * streamBlockSec
	for _, c := range clients {
		cr := scoreClient(c, blockBytes, opts)
		res.Clients = append(res.Clients, cr)
		playable = append(playable, cr.PlayablePct)
		if cr.Blocks > 0 {
			latSum += cr.MeanRetrievalLatency * float64(cr.Blocks)
			latN += cr.Blocks
		}
	}
	if len(playable) > 0 {
		res.PlayableBox, _ = stats.NewBoxplot(playable)
	}
	if latN > 0 {
		res.MeanBlockLatency = latSum / float64(latN)
	}
	return res, nil
}

// scoreClient converts a cumulative-byte series into block arrival
// times and scores them against play deadlines.
func scoreClient(c *streamClient, blockBytes float64, opts StreamingOpts) ClientResult {
	cr := ClientResult{Client: c.node, JoinAt: c.joinAt}
	if len(c.bytes) == 0 {
		return cr
	}
	end := c.bytes[len(c.bytes)-1]
	// Blocks the client should have played by the end of the run.
	playSpan := end.Time - c.joinAt - streamStartupSec
	nBlocks := int(playSpan / streamBlockSec)
	if nBlocks <= 0 {
		return cr
	}
	var latSum float64
	for i := 0; i < nBlocks; i++ {
		need := float64(i+1) * blockBytes
		arrival, ok := arrivalTime(c.bytes, need)
		arrival += c.propDelay
		if !ok {
			// Never arrived within the run: late by definition.
			cr.Blocks++
			latSum += end.Time - (c.joinAt + float64(i)*streamBlockSec)
			continue
		}
		deadline := c.joinAt + streamStartupSec + float64(i)*streamBlockSec
		cr.Blocks++
		if arrival <= deadline {
			cr.OnTime++
		}
		// Retrieval latency: from the block becoming available at the
		// source (live stream: i·blockSec after join) to full arrival.
		avail := c.joinAt + float64(i)*streamBlockSec
		if arrival > avail {
			latSum += arrival - avail
		}
	}
	if cr.Blocks > 0 {
		cr.PlayablePct = 100 * float64(cr.OnTime) / float64(cr.Blocks)
		cr.MeanRetrievalLatency = latSum / float64(cr.Blocks)
	}
	return cr
}

// shareWeightedLatency returns the flow's propagation delay averaged
// over its path shares (falls back to the first path when all share
// has drained).
func shareWeightedLatency(t *topo.Topology, f *sim.Flow) float64 {
	var lat, total float64
	for i, p := range f.Paths {
		sh := f.ShareOf(i)
		if sh <= 0 || p.Empty() {
			continue
		}
		lat += sh * p.Latency(t)
		total += sh
	}
	if total <= 0 {
		if len(f.Paths) > 0 {
			return f.Paths[0].Latency(t)
		}
		return 0
	}
	return lat / total
}

// arrivalTime interpolates when cumulative bytes first reached need.
func arrivalTime(samples []sim.Sample, need float64) (float64, bool) {
	i := sort.Search(len(samples), func(i int) bool { return samples[i].Value >= need })
	if i == len(samples) {
		return 0, false
	}
	if i == 0 {
		return samples[0].Time, true
	}
	prev, cur := samples[i-1], samples[i]
	if cur.Value <= prev.Value {
		return cur.Time, true
	}
	frac := (need - prev.Value) / (cur.Value - prev.Value)
	return prev.Time + frac*(cur.Time-prev.Time), true
}
