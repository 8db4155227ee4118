package tracestore

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"

	"response/internal/criticality"
)

// Severity is a window's triage tier.
type Severity uint8

// Severity tiers: critical windows saw failures, cascades or degraded
// entries; warn windows saw evacuations, replan failures or retries;
// everything else is info.
const (
	SevInfo Severity = iota
	SevWarn
	SevCritical
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SevWarn:
		return "warn"
	case SevCritical:
		return "critical"
	}
	return "info"
}

// ParseSeverity parses a severity name ("info", "warn", "critical";
// empty means info).
func ParseSeverity(v string) (Severity, bool) {
	switch v {
	case "", "info":
		return SevInfo, true
	case "warn":
		return SevWarn, true
	case "critical":
		return SevCritical, true
	}
	return SevInfo, false
}

// WindowQuery filters the tier-1 window search.
type WindowQuery struct {
	// Tenant restricts to one tenant label; empty matches all.
	Tenant string
	// Since/Until bound the window start time: Since inclusive, Until
	// exclusive; zero means open.
	Since, Until float64
	// MinSeverity drops windows below the tier.
	MinSeverity Severity
	// Limit caps the result (default 100, cap 1000); the most recent
	// windows win.
	Limit int
}

// WindowSummary is one tier-1 search result.
type WindowSummary struct {
	Tenant         string  `json:"tenant,omitempty"`
	Start          float64 `json:"start"`
	End            float64 `json:"end"`
	Severity       string  `json:"severity"`
	Events         int     `json:"events"`
	Failures       int     `json:"failures"`
	Cascades       int     `json:"cascades"`
	Repairs        int     `json:"repairs"`
	Evacuations    int     `json:"evacuations"`
	Shifts         int     `json:"shifts"`
	WakeRequests   int     `json:"wake_requests"`
	LinkWakes      int     `json:"link_wakes"`
	LinkSleeps     int     `json:"link_sleeps"`
	Probes         int     `json:"probes"`
	Swaps          int     `json:"swaps"`
	ReplanFailures int     `json:"replan_failures"`
	Degraded       int     `json:"degraded"`
	Recovered      int     `json:"recovered"`
	Retries        int     `json:"retries"`
}

func (s *Store) summaryOf(tenant string, w *window) WindowSummary {
	return WindowSummary{
		Tenant:         tenant,
		Start:          float64(w.bucket) * s.opts.WindowSec,
		End:            float64(w.bucket+1) * s.opts.WindowSec,
		Severity:       w.severity().String(),
		Events:         w.events,
		Failures:       w.failures,
		Cascades:       w.cascades,
		Repairs:        w.repairs,
		Evacuations:    w.evacuations,
		Shifts:         w.shifts,
		WakeRequests:   w.wakeRequests,
		LinkWakes:      w.linkWakes,
		LinkSleeps:     w.linkSleeps,
		Probes:         w.probes,
		Swaps:          w.swaps,
		ReplanFailures: w.replanFailures,
		Degraded:       w.degraded,
		Recovered:      w.recovered,
		Retries:        w.retries,
	}
}

// Windows is tier 1: search the window index. Results are ordered by
// (start, tenant) ascending; when Limit trims, the most recent windows
// are kept. Index-only — no event scan.
func (s *Store) Windows(q WindowQuery) []WindowSummary {
	limit := q.Limit
	if limit <= 0 {
		limit = 100
	}
	if limit > 1000 {
		limit = 1000
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []WindowSummary
	for tid, tw := range s.byTenant {
		tenant := s.names[tid]
		if q.Tenant != "" && tenant != q.Tenant {
			continue
		}
		for _, w := range tw.wins {
			start := float64(w.bucket) * s.opts.WindowSec
			if q.Since != 0 && start < q.Since {
				continue
			}
			if q.Until != 0 && start >= q.Until {
				continue
			}
			if w.severity() < q.MinSeverity {
				continue
			}
			out = append(out, s.summaryOf(tenant, w))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Tenant < out[j].Tenant
	})
	if len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// LinkSummary is one affected link in a tier-2 window drill-down.
type LinkSummary struct {
	Link        int     `json:"link"`
	Events      int     `json:"events"`
	Failures    int     `json:"failures"`
	Evacuations int     `json:"evacuations"`
	Wakes       int     `json:"wakes"`
	Sleeps      int     `json:"sleeps"`
	MaxUtil     float64 `json:"max_util"`
	FirstTS     float64 `json:"first_ts"`
	LastTS      float64 `json:"last_ts"`
}

// WindowDetail is the tier-2 drill-down of one window.
type WindowDetail struct {
	Window WindowSummary `json:"window"`
	// Links lists the affected links, busiest first. FlowsTouched
	// counts distinct flows with at least one event in the window.
	Links        []LinkSummary `json:"links"`
	FlowsTouched int           `json:"flows_touched"`
}

// scanRange yields every retained event of the window starting at
// start for the given tenant ("" = all). Caller holds mu.RLock.
func (s *Store) scanRange(tenant string, start float64, yield func(r *rec)) {
	end := start + s.opts.WindowSec
	live := s.recs[s.start:]
	lo := sort.Search(len(live), func(i int) bool { return live[i].ts >= start })
	var tid uint16
	filter := tenant != ""
	if filter {
		id, ok := s.nameID[tenant]
		if !ok {
			return
		}
		tid = id
	}
	for i := lo; i < len(live) && live[i].ts < end; i++ {
		if filter && live[i].tenant != tid {
			continue
		}
		yield(&live[i])
	}
}

// Summary is tier 2: the per-link topology summary of one window,
// recomputed from retained events (a window whose events have been
// evicted from the ring returns ok=false). start is the window start
// time; any time inside the window works too.
func (s *Store) Summary(tenant string, start float64) (WindowDetail, bool) {
	start = math.Floor(start/s.opts.WindowSec) * s.opts.WindowSec
	s.mu.RLock()
	defer s.mu.RUnlock()
	agg := window{bucket: int64(math.Floor(start / s.opts.WindowSec))}
	links := map[int32]*LinkSummary{}
	flows := map[int32]struct{}{}
	n := 0
	s.scanRange(tenant, start, func(r *rec) {
		if n == 0 {
			agg.firstTS, agg.lastTS = r.ts, r.ts
		}
		n++
		accountInto(&agg, r)
		if r.flow >= 0 {
			flows[r.flow] = struct{}{}
		}
		if r.link < 0 {
			return
		}
		ls := links[r.link]
		if ls == nil {
			ls = &LinkSummary{Link: int(r.link), FirstTS: r.ts, LastTS: r.ts}
			links[r.link] = ls
		}
		ls.Events++
		if r.ts < ls.FirstTS {
			ls.FirstTS = r.ts
		}
		if r.ts > ls.LastTS {
			ls.LastTS = r.ts
		}
		switch r.class {
		case clsFailure, clsCascade:
			ls.Failures++
			if r.val > ls.MaxUtil {
				ls.MaxUtil = r.val
			}
		case clsEvacuate:
			ls.Evacuations++
		case clsLinkWake, clsWakeReq:
			ls.Wakes++
		case clsLinkSleep:
			ls.Sleeps++
		}
	})
	if n == 0 {
		return WindowDetail{}, false
	}
	det := WindowDetail{Window: s.summaryOf(tenant, &agg), FlowsTouched: len(flows)}
	for _, ls := range links {
		det.Links = append(det.Links, *ls)
	}
	sort.Slice(det.Links, func(i, j int) bool {
		if det.Links[i].Events != det.Links[j].Events {
			return det.Links[i].Events > det.Links[j].Events
		}
		return det.Links[i].Link < det.Links[j].Link
	})
	return det, true
}

// accountInto applies one event to a window aggregate: the tier-1
// index entry Store.account found, or tier-2's scratch recomputation.
func accountInto(w *window, r *rec) {
	w.events++
	if r.ts < w.firstTS {
		w.firstTS = r.ts
	}
	if r.ts > w.lastTS {
		w.lastTS = r.ts
	}
	switch r.class {
	case clsFailure:
		w.failures++
	case clsCascade:
		w.cascades++
	case clsRepair:
		w.repairs++
	case clsEvacuate:
		w.evacuations++
	case clsShift:
		w.shifts++
	case clsWakeReq:
		w.wakeRequests++
	case clsLinkWake:
		w.linkWakes++
	case clsLinkSleep:
		w.linkSleeps++
	case clsProbe:
		w.probes++
	case clsSwap:
		w.swaps++
	case clsReplanFail:
		w.replanFailures++
	case clsDegraded:
		w.degraded++
	case clsRecovered:
		w.recovered++
	case clsRetry:
		w.retries++
	}
}

// LinkScore is one ranked link of a tier-3 critical-path answer.
type LinkScore struct {
	Link        int     `json:"link"`
	Score       float64 `json:"score"`
	Seed        float64 `json:"seed"`
	Events      int     `json:"events"`
	Failures    int     `json:"failures"`
	Evacuations int     `json:"evacuations"`
}

// CriticalPath is the tier-3 answer: the window's links ranked by
// energy-criticality.
type CriticalPath struct {
	Tenant string      `json:"tenant,omitempty"`
	Start  float64     `json:"start"`
	End    float64     `json:"end"`
	Events int         `json:"events"`
	Actors int         `json:"actors"`
	Links  []LinkScore `json:"links"`
}

// Failure-evidence floor and participation floor of the criticality
// seeds: a link that failed in the window is seeded at ≥ seedFailure
// even if it idled before the cut (the failure IS the excursion); any
// other link with events gets seedBase so repeated involvement can
// still surface it.
const (
	seedFailure = 0.5
	seedBase    = 0.05
)

// CriticalPathQuery runs tier 3: HITS-style criticality over the
// window's event→link incidence (internal/criticality — the same
// kernel that orders the planner's warm descent), seeded with link
// utilization at failure time. Actors are flows (coupling every link
// a flow touched in the window: evacuations tie their cause link to
// the paths the flow landed on) plus one synthetic actor per
// flow-less link event (wake/sleep/repair churn). Links are returned
// ranked, top k (default 10, cap 256).
func (s *Store) CriticalPathQuery(tenant string, start float64, k int) CriticalPath {
	if k <= 0 {
		k = 10
	}
	if k > 256 {
		k = 256
	}
	start = math.Floor(start/s.opts.WindowSec) * s.opts.WindowSec
	s.mu.RLock()
	defer s.mu.RUnlock()
	cp := CriticalPath{Tenant: tenant, Start: start, End: start + s.opts.WindowSec}

	linkIdx := map[int32]int{}
	var stats []LinkScore // per dense link: counters + seed scratch
	var hasFail []bool    // per dense link: failure evidence
	flowIdx := map[int32]int{}
	var actorLinks [][]int32 // per actor: touched links (dense ids, with multiplicity)

	dense := func(link int32) int {
		li, ok := linkIdx[link]
		if !ok {
			li = len(stats)
			linkIdx[link] = li
			stats = append(stats, LinkScore{Link: int(link)})
			hasFail = append(hasFail, false)
		}
		return li
	}
	s.scanRange(tenant, start, func(r *rec) {
		cp.Events++
		if r.link < 0 {
			return
		}
		li := dense(r.link)
		stats[li].Events++
		switch r.class {
		case clsFailure, clsCascade:
			stats[li].Failures++
			hasFail[li] = true
			if r.val > stats[li].Seed {
				stats[li].Seed = r.val
			}
		case clsEvacuate:
			stats[li].Evacuations++
		}
		if r.flow >= 0 {
			ai, ok := flowIdx[r.flow]
			if !ok {
				ai = len(actorLinks)
				flowIdx[r.flow] = ai
				actorLinks = append(actorLinks, nil)
			}
			actorLinks[ai] = append(actorLinks[ai], int32(li))
		} else {
			// Flow-less link event: its own single-link actor.
			actorLinks = append(actorLinks, []int32{int32(li)})
		}
	})
	if len(stats) == 0 {
		return cp
	}
	seed := make([]float64, len(stats))
	for li := range stats {
		switch {
		case hasFail[li] && stats[li].Seed < seedFailure:
			seed[li] = seedFailure
		case hasFail[li]:
			seed[li] = stats[li].Seed
		default:
			seed[li] = seedBase
		}
		stats[li].Seed = seed[li]
	}
	scores := criticality.Scores(seed, len(actorLinks), func(a int, yield func(link int)) {
		for _, li := range actorLinks[a] {
			yield(int(li))
		}
	}, 4)
	for li := range stats {
		stats[li].Score = scores[li]
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Score != stats[j].Score {
			return stats[i].Score > stats[j].Score
		}
		return stats[i].Link < stats[j].Link
	})
	cp.Actors = len(actorLinks)
	if len(stats) > k {
		stats = stats[:k]
	}
	cp.Links = stats
	return cp
}

// EventQuery filters tier-4 individual event retrieval.
type EventQuery struct {
	Tenant string
	Span   string
	Op     string
	// Flow/Link filter by actor when set; nil matches any. A pointer to
	// -1 matches events with that field absent.
	Flow, Link *int
	// Since inclusive, Until exclusive; zero means open.
	Since, Until float64
	// Limit caps the result (default 100, cap 10000); earliest first.
	Limit int
}

// Event is one retrieved event, strings restored. Absent actors are
// -1, mirroring the EventWriter API.
type Event struct {
	TS     float64 `json:"ts"`
	Tenant string  `json:"tenant,omitempty"`
	Span   string  `json:"span"`
	Op     string  `json:"op"`
	Flow   int     `json:"flow"`
	From   int     `json:"from"`
	To     int     `json:"to"`
	Link   int     `json:"link"`
	Val    float64 `json:"val"`
}

// Events is tier 4: retrieve individual retained events, time-ordered,
// bounded by Limit.
func (s *Store) Events(q EventQuery) []Event {
	limit := q.Limit
	if limit <= 0 {
		limit = 100
	}
	if limit > 10000 {
		limit = 10000
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	live := s.recs[s.start:]
	lo := 0
	if q.Since != 0 {
		lo = sort.Search(len(live), func(i int) bool { return live[i].ts >= q.Since })
	}
	var out []Event
	for i := lo; i < len(live) && len(out) < limit; i++ {
		r := &live[i]
		if q.Until != 0 && r.ts >= q.Until {
			break
		}
		if q.Tenant != "" && s.names[r.tenant] != q.Tenant {
			continue
		}
		if q.Span != "" && s.names[r.span] != q.Span {
			continue
		}
		if q.Op != "" && s.names[r.op] != q.Op {
			continue
		}
		if q.Flow != nil && r.flow != int32(*q.Flow) {
			continue
		}
		if q.Link != nil && r.link != int32(*q.Link) {
			continue
		}
		out = append(out, Event{
			TS:     r.ts,
			Tenant: s.names[r.tenant],
			Span:   s.names[r.span],
			Op:     s.names[r.op],
			Flow:   int(r.flow),
			From:   int(r.from),
			To:     int(r.to),
			Link:   int(r.link),
			Val:    r.val,
		})
	}
	return out
}

// --- Query-parameter parsing (the REST/CLI surface; fuzzed) ---

func parseFloatParam(v url.Values, key string) (float64, error) {
	raw := v.Get(key)
	if raw == "" {
		return 0, nil
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("tracestore: bad %s %q", key, raw)
	}
	return f, nil
}

func parseIntParam(v url.Values, key string, def int) (int, error) {
	raw := v.Get(key)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("tracestore: bad %s %q", key, raw)
	}
	return n, nil
}

// ParseWindowQuery builds a tier-1 query from URL parameters: tenant,
// since, until, severity, limit.
func ParseWindowQuery(v url.Values) (WindowQuery, error) {
	q := WindowQuery{Tenant: v.Get("tenant")}
	var err error
	if q.Since, err = parseFloatParam(v, "since"); err != nil {
		return q, err
	}
	if q.Until, err = parseFloatParam(v, "until"); err != nil {
		return q, err
	}
	sev, ok := ParseSeverity(v.Get("severity"))
	if !ok {
		return q, fmt.Errorf("tracestore: bad severity %q", v.Get("severity"))
	}
	q.MinSeverity = sev
	if q.Limit, err = parseIntParam(v, "limit", 0); err != nil {
		return q, err
	}
	if q.Limit < 0 {
		return q, fmt.Errorf("tracestore: negative limit")
	}
	return q, nil
}

// DrillQuery addresses one window for the tier-2/3 drill-downs.
type DrillQuery struct {
	Tenant string
	Start  float64
	K      int
}

// ParseDrillQuery builds a tier-2/3 query from URL parameters: tenant,
// start (required), k (tier 3 only).
func ParseDrillQuery(v url.Values) (DrillQuery, error) {
	q := DrillQuery{Tenant: v.Get("tenant")}
	if v.Get("start") == "" {
		return q, fmt.Errorf("tracestore: missing start")
	}
	var err error
	if q.Start, err = parseFloatParam(v, "start"); err != nil {
		return q, err
	}
	if q.K, err = parseIntParam(v, "k", 0); err != nil {
		return q, err
	}
	if q.K < 0 {
		return q, fmt.Errorf("tracestore: negative k")
	}
	return q, nil
}

// ParseEventQuery builds a tier-4 query from URL parameters: tenant,
// span, op, flow, link, since, until, limit.
func ParseEventQuery(v url.Values) (EventQuery, error) {
	q := EventQuery{
		Tenant: v.Get("tenant"),
		Span:   v.Get("span"),
		Op:     v.Get("op"),
	}
	var err error
	for _, p := range []struct {
		key string
		dst **int
	}{{"flow", &q.Flow}, {"link", &q.Link}} {
		if v.Get(p.key) == "" {
			continue
		}
		n, perr := parseIntParam(v, p.key, 0)
		if perr != nil {
			return q, perr
		}
		*p.dst = &n
	}
	if q.Since, err = parseFloatParam(v, "since"); err != nil {
		return q, err
	}
	if q.Until, err = parseFloatParam(v, "until"); err != nil {
		return q, err
	}
	if q.Limit, err = parseIntParam(v, "limit", 0); err != nil {
		return q, err
	}
	if q.Limit < 0 {
		return q, fmt.Errorf("tracestore: negative limit")
	}
	return q, nil
}
