package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"response/internal/trace"
	"response/internal/tracestore"
)

// The synthetic incident stream: steady te/sim churn over streamLinks
// links and streamFlows flows at 10 events per simulated second, with
// an SRLG-style burst (burstCuts cuts, then an evacuation wave) opening
// every 10th window — the stream shape BENCH_trace.json was taken on.
const (
	streamLinks  = 200
	streamFlows  = 5000
	windowSec    = 900
	perWindow    = windowSec * 10
	burstCuts    = 5
	burstEvents  = 55
	drillK       = 10
	drillEvents  = 50
	boundedShare = 4 // the bounded-ingest probe retains events/boundedShare
)

// incident is one burst window of the stream and the links it cut.
type incident struct {
	start float64
	links [burstCuts]int
}

// diagState is what the diagnosis phase leaves for the probes.
type diagState struct {
	stream    []byte
	incidents []incident
	store     *tracestore.Store
}

// renderStream writes the seeded incident stream into buf through the
// real trace.EventWriter. The schedule (which event is what, which
// links a burst cuts) is fixed; the seed draws the actors.
func renderStream(buf *bytes.Buffer, events int, rng *rand.Rand) ([]incident, error) {
	buf.Reset()
	ew := trace.NewEventWriter(buf)
	var incidents []incident
	for i := 0; i < events; i++ {
		ts := float64(i) / 10
		in, win := i%perWindow, i/perWindow
		if win%10 == 1 && in < burstEvents {
			if in == 0 {
				inc := incident{start: float64(win * windowSec)}
				for c := range inc.links {
					inc.links[c] = (win*17 + c*31) % streamLinks
				}
				incidents = append(incidents, inc)
			}
			link := (win*17 + (in%burstCuts)*31) % streamLinks
			if in < burstCuts {
				ew.EmitLink(ts, "sim", "fail", link, 0.9+0.02*float64(in))
			} else {
				ew.EmitFlowLink(ts, "te", "evacuate", rng.Intn(streamFlows), rng.Intn(40), rng.Intn(40), link, 1)
			}
			continue
		}
		switch i % 10 {
		case 0:
			ew.Emit(ts, "te", "probe", -1, -1, -1, 0)
		case 1:
			ew.EmitLink(ts, "sim", "sleep", rng.Intn(streamLinks), 30)
		case 2:
			ew.EmitLink(ts, "sim", "wake", rng.Intn(streamLinks), 2)
		default:
			ew.EmitFlowLink(ts, "te", "shift", rng.Intn(streamFlows), rng.Intn(40), rng.Intn(40), rng.Intn(streamLinks), rng.Float64())
		}
	}
	if len(incidents) == 0 {
		return nil, fmt.Errorf("a %d-event stream ends before its first incident window", events)
	}
	return incidents, ew.Err()
}

// drill is one four-tier drill-down into an incident window: search →
// summary → critical path → events. It returns the critical path.
func drill(rec *recorder, s *tracestore.Store, inc incident, iter int) tracestore.CriticalPath {
	var cp tracestore.CriticalPath
	rec.layer("tracestore.windows", iter, func() {
		s.Windows(tracestore.WindowQuery{MinSeverity: tracestore.SevCritical})
	})
	rec.layer("tracestore.summary", iter, func() { s.Summary("", inc.start) })
	rec.layer("tracestore.critical_path", iter, func() { cp = s.CriticalPathQuery("", inc.start, drillK) })
	rec.layer("tracestore.events", iter, func() {
		s.Events(tracestore.EventQuery{Since: inc.start, Until: inc.start + windowSec, Limit: drillEvents})
	})
	return cp
}

// diagPhase is the observability read/write path: ingest the incident
// stream into fresh stores, then drill into its incident windows.
func (r *run) diagPhase() error {
	d := &r.diag
	// One buffer for every repetition: the first pays for fresh pages
	// from the OS (2-3× the steady cost at 48 MB), the median does not.
	var buf bytes.Buffer
	incidents, err := setupStep(r, "trace stream", func() ([]incident, error) {
		var incidents []incident
		var err error
		r.rec.layer("trace.render", 0, func() {
			incidents, err = renderStream(&buf, r.sh.TraceEvents, r.rng(streamTrace))
		})
		return incidents, err
	}, nil)
	if err != nil {
		return err
	}
	d.stream, d.incidents = buf.Bytes(), incidents

	err = r.measured(func() error {
		for i := 0; i < r.sh.Ingests; i++ {
			s := tracestore.New(tracestore.Opts{MaxEvents: r.sh.TraceEvents})
			var added, skipped int
			var err error
			r.rec.op("ingest", i, func() { added, skipped, err = s.Ingest(bytes.NewReader(d.stream)) })
			st := s.Stats()
			r.check(err == nil && skipped == 0 && added == r.sh.TraceEvents && st.Events == r.sh.TraceEvents,
				"ingest %d: err %v, %d added, %d skipped, %d retained of %d", i, err, added, skipped, st.Events, r.sh.TraceEvents)
			d.store = s
		}
		for i := 0; i < r.sh.Drills; i++ {
			inc := d.incidents[i%len(d.incidents)]
			var cp tracestore.CriticalPath
			r.rec.op("drill", i, func() { cp = drill(r.rec, d.store, inc, i) })
			if i < len(d.incidents) {
				// First visit of each incident window: its top-ranked
				// link must be one the burst cut.
				ok := false
				if len(cp.Links) > 0 {
					for _, l := range inc.links {
						ok = ok || cp.Links[0].Link == l
					}
				}
				r.check(ok, "incident window at %g: top critical link is not a burst link (%d links ranked)", inc.start, len(cp.Links))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.attempted += r.sh.Drills

	s := r.rec.samples
	events := float64(r.sh.TraceEvents)
	r.e2e("ingest_events_per_s", events/median(s["ingest"]), len(s["ingest"]))
	r.e2e("drill_p50_ms", median(s["drill"])*1e3, len(s["drill"]))

	st := d.store.Stats()
	r.lay("tracestore.drill_p99_ms", quantile(s["drill"], 0.99)*1e3, len(s["drill"]))
	r.lay("trace.emit_ns", median(s["trace.render"])*1e9/events, r.sh.TraceEvents)
	r.lay("tracestore.ingest_line_ns", median(s["ingest"])*1e9/events, r.sh.TraceEvents)
	r.lay("tracestore.ingest_mb_per_s", float64(len(d.stream))/1e6/median(s["ingest"]), len(s["ingest"]))
	for _, tier := range []string{"windows", "summary", "critical_path", "events"} {
		r.layMedian("tracestore."+tier+"_us", "tracestore."+tier, 1e6)
	}
	r.lay("tracestore.critical_path_p99_us", quantile(s["tracestore.critical_path"], 0.99)*1e6, len(s["tracestore.critical_path"]))
	r.lay("tracestore.retained", float64(st.Events), 1)
	r.lay("tracestore.windows", float64(st.Windows), 1)
	r.lay("tracestore.skipped", float64(st.Skipped), 1)
	return nil
}
