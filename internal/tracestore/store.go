// Package tracestore is the read side of the runtime's JSONL flight
// recorder: an indexed, bounded-memory store that ingests
// trace.EventWriter streams — recorded files or controld's live
// per-tenant event hub — and serves progressive-disclosure incident
// queries modeled on Jaeger's search → drill-down → span ADR:
//
//	tier 1  Windows       search fixed-width time windows by tenant,
//	                      severity and time range (index only, no scan)
//	tier 2  Summary       per-link topology summary of one window
//	tier 3  CriticalPath  HITS-ranked energy-critical links of one
//	                      window (internal/criticality, seeded with
//	                      link utilization at failure)
//	tier 4  Events        individual event retrieval by span/op/actor
//
// Never the whole trace at once: every tier is bounded.
//
// Memory is bounded two ways. The event ring retains the most recent
// Opts.MaxEvents events (oldest evicted first); the window index is
// bounded separately per tenant (Opts.MaxWindows), so tier-1 search
// keeps working for history whose raw events have already been
// evicted — drill-down tiers answer from retained events only.
//
// Ingestion is resilient by construction: a corrupt or truncated JSONL
// line is counted and skipped, never a panic and never a poisoned
// store; out-of-order timestamps are placed by binary insertion so
// queries always see a time-sorted ring.
package tracestore

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
)

// Opts parameterizes a Store.
type Opts struct {
	// MaxEvents bounds the event ring (default 1<<20).
	MaxEvents int
	// MaxWindows bounds the per-tenant window index (default 4096
	// windows ≈ 42 days at the default width).
	MaxWindows int
	// WindowSec is the search-window width in simulation seconds
	// (default 900, the GÉANT trace granularity).
	WindowSec float64
}

func (o *Opts) defaults() {
	if o.MaxEvents <= 0 {
		o.MaxEvents = 1 << 20
	}
	if o.MaxWindows <= 0 {
		o.MaxWindows = 4096
	}
	if o.WindowSec <= 0 {
		o.WindowSec = 900
	}
}

// eventClass buckets (span, op) pairs for window accounting and
// severity derivation.
type eventClass uint8

const (
	clsOther eventClass = iota
	clsFailure
	clsRepair
	clsCascade
	clsEvacuate
	clsShift
	clsWakeReq
	clsLinkWake
	clsLinkSleep
	clsProbe
	clsSwap
	clsReplanFail
	clsDegraded
	clsRecovered
	clsRetry
)

// classify maps a (span, op) pair onto its accounting class.
func classify(span, op string) eventClass {
	switch span {
	case "sim":
		switch op {
		case "fail":
			return clsFailure
		case "repair":
			return clsRepair
		case "wake":
			return clsLinkWake
		case "sleep":
			return clsLinkSleep
		}
	case "te":
		switch op {
		case "evacuate":
			return clsEvacuate
		case "shift":
			return clsShift
		case "wake":
			return clsWakeReq
		case "probe":
			return clsProbe
		}
	case "lifecycle":
		switch op {
		case "swap", "swap-done", "stage":
			return clsSwap
		case "replan-error", "replan-timeout", "replan-panic", "reject-invalid":
			return clsReplanFail
		case "degraded":
			return clsDegraded
		case "recovered":
			return clsRecovered
		case "retry":
			return clsRetry
		}
	case "chaos":
		switch op {
		case "cascade":
			return clsCascade
		case "srlg-cut":
			return clsFailure
		}
	}
	return clsOther
}

// rec is one stored event: interned strings, fixed width.
type rec struct {
	ts     float64
	val    float64
	flow   int32
	from   int32
	to     int32
	link   int32
	tenant uint16
	span   uint16
	op     uint16
	class  eventClass
}

// window is one tier-1 aggregate: everything ever ingested for a
// (tenant, bucket), independent of ring eviction.
type window struct {
	bucket          int64
	events          int
	failures        int
	cascades        int
	repairs         int
	evacuations     int
	shifts          int
	wakeRequests    int
	linkWakes       int
	linkSleeps      int
	probes          int
	swaps           int
	replanFailures  int
	degraded        int
	recovered       int
	retries         int
	firstTS, lastTS float64
}

// severity derives the window's triage tier from its counts.
func (w *window) severity() Severity {
	if w.failures+w.cascades+w.degraded > 0 {
		return SevCritical
	}
	if w.evacuations+w.replanFailures+w.retries > 0 {
		return SevWarn
	}
	return SevInfo
}

// tenantWindows is one tenant's bounded, bucket-sorted window index.
type tenantWindows struct {
	wins    []*window // sorted by bucket
	dropped int       // windows evicted by the MaxWindows bound
}

// Stats reports the store's bookkeeping counters.
type Stats struct {
	// Events is the number of events currently retained in the ring.
	Events int `json:"events"`
	// Ingested counts every event ever accepted; Skipped counts
	// corrupt or truncated lines dropped; Evicted counts events pushed
	// out of the ring by the memory bound.
	Ingested int `json:"ingested"`
	Skipped  int `json:"skipped"`
	Evicted  int `json:"evicted"`
	// Windows is the number of live tier-1 windows across all tenants;
	// WindowsDropped counts windows evicted by the per-tenant bound.
	Windows        int `json:"windows"`
	WindowsDropped int `json:"windows_dropped"`
	// Tenants is the number of distinct tenant labels seen.
	Tenants int `json:"tenants"`
}

// Store is the indexed, bounded-memory trace store. All methods are
// safe for concurrent use: one ingest goroutine and any number of
// query goroutines.
type Store struct {
	opts Opts

	mu sync.RWMutex

	// String interning: index 0 is always "".
	names  []string
	nameID map[string]uint16

	// Event ring: recs[start:] are live, time-sorted. Eviction
	// advances start; compaction copies down when the dead prefix
	// outgrows the live half.
	recs  []rec
	start int

	byTenant map[uint16]*tenantWindows

	ingested int
	skipped  int
	evicted  int
}

// New builds a Store.
func New(opts Opts) *Store {
	opts.defaults()
	s := &Store{
		opts:     opts,
		names:    []string{""},
		nameID:   map[string]uint16{"": 0},
		byTenant: make(map[uint16]*tenantWindows),
	}
	return s
}

// WindowSec returns the effective search-window width.
func (s *Store) WindowSec() float64 { return s.opts.WindowSec }

// intern maps a string to its stable id, minting one if needed. The
// id space is 16-bit; overflow reports false (the event is skipped —
// a store fed adversarial cardinality degrades by counting, not by
// unbounded growth).
func (s *Store) intern(v string) (uint16, bool) {
	if id, ok := s.nameID[v]; ok {
		return id, true
	}
	if len(s.names) > math.MaxUint16 {
		return 0, false
	}
	id := uint16(len(s.names))
	s.names = append(s.names, v)
	s.nameID[v] = id
	return id, true
}

// wireEvent mirrors the EventWriter JSONL schema. Optional fields are
// pointers so "absent" and "zero" stay distinguishable.
type wireEvent struct {
	TS     *float64 `json:"ts"`
	Tenant string   `json:"tenant"`
	Span   string   `json:"span"`
	Op     string   `json:"op"`
	Flow   *int32   `json:"flow"`
	From   *int32   `json:"from"`
	To     *int32   `json:"to"`
	Link   *int32   `json:"link"`
	Val    float64  `json:"val"`
}

// IngestLine ingests one JSONL event line. Corrupt, truncated or
// schema-violating lines are counted and dropped — the return value
// reports acceptance — and never panic or poison the store.
func (s *Store) IngestLine(line []byte) bool {
	var w wireEvent
	if err := json.Unmarshal(line, &w); err != nil {
		s.mu.Lock()
		s.skipped++
		s.mu.Unlock()
		return false
	}
	return s.ingestWire(&w)
}

func (s *Store) ingestWire(w *wireEvent) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.TS == nil || math.IsNaN(*w.TS) || math.IsInf(*w.TS, 0) || w.Span == "" || w.Op == "" {
		s.skipped++
		return false
	}
	tenant, ok1 := s.intern(w.Tenant)
	span, ok2 := s.intern(w.Span)
	op, ok3 := s.intern(w.Op)
	if !ok1 || !ok2 || !ok3 {
		s.skipped++
		return false
	}
	r := rec{
		ts:     *w.TS,
		val:    w.Val,
		flow:   -1,
		from:   -1,
		to:     -1,
		link:   -1,
		tenant: tenant,
		span:   span,
		op:     op,
		class:  classify(w.Span, w.Op),
	}
	if w.Flow != nil {
		r.flow = *w.Flow
	}
	if w.From != nil {
		r.from = *w.From
	}
	if w.To != nil {
		r.to = *w.To
	}
	if w.Link != nil {
		r.link = *w.Link
	}
	s.insert(r)
	s.account(&r)
	s.ingested++
	return true
}

// insert places r in timestamp order (stable for equal timestamps:
// later arrivals land after earlier ones) and applies the ring bound.
func (s *Store) insert(r rec) {
	live := s.recs[s.start:]
	// Fast path: in-order arrival.
	if n := len(live); n == 0 || live[n-1].ts <= r.ts {
		s.recs = append(s.recs, r)
	} else {
		// First live index with ts strictly greater than r.ts.
		i := sort.Search(n, func(i int) bool { return live[i].ts > r.ts })
		s.recs = append(s.recs, rec{})
		pos := s.start + i
		copy(s.recs[pos+1:], s.recs[pos:])
		s.recs[pos] = r
	}
	if len(s.recs)-s.start > s.opts.MaxEvents {
		s.start++
		s.evicted++
	}
	// Amortized compaction keeps total memory ≤ ~2× the live bound.
	if s.start > 4096 && s.start > len(s.recs)/2 {
		n := copy(s.recs, s.recs[s.start:])
		s.recs = s.recs[:n]
		s.start = 0
	}
}

// account folds r into its tenant's tier-1 window index.
func (s *Store) account(r *rec) {
	tw := s.byTenant[r.tenant]
	if tw == nil {
		tw = &tenantWindows{}
		s.byTenant[r.tenant] = tw
	}
	bucket := int64(math.Floor(r.ts / s.opts.WindowSec))
	var w *window
	if n := len(tw.wins); n > 0 && tw.wins[n-1].bucket == bucket {
		w = tw.wins[n-1] // common case: current window
	} else {
		i := sort.Search(len(tw.wins), func(i int) bool { return tw.wins[i].bucket >= bucket })
		if i < len(tw.wins) && tw.wins[i].bucket == bucket {
			w = tw.wins[i]
		} else {
			w = &window{bucket: bucket, firstTS: r.ts, lastTS: r.ts}
			tw.wins = append(tw.wins, nil)
			copy(tw.wins[i+1:], tw.wins[i:])
			tw.wins[i] = w
			if len(tw.wins) > s.opts.MaxWindows {
				copy(tw.wins, tw.wins[1:])
				tw.wins = tw.wins[:len(tw.wins)-1]
				tw.dropped++
			}
		}
	}
	accountInto(w, r)
}

// Ingest reads a whole JSONL stream, line by line. Malformed lines are
// skipped and counted; only the reader's own error (if any) is
// returned. Lines longer than 1 MiB are treated as corrupt.
func (s *Store) Ingest(r io.Reader) (added, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if s.IngestLine(line) {
			added++
		} else {
			skipped++
		}
	}
	if serr := sc.Err(); serr != nil {
		// A stream dying mid-line (bufio.ErrTooLong, I/O error) keeps
		// everything ingested so far; the partial line counts skipped.
		s.mu.Lock()
		s.skipped++
		s.mu.Unlock()
		skipped++
		if serr != bufio.ErrTooLong {
			err = serr
		}
	}
	return added, skipped, err
}

// Stats returns the store's bookkeeping counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Events:   len(s.recs) - s.start,
		Ingested: s.ingested,
		Skipped:  s.skipped,
		Evicted:  s.evicted,
		Tenants:  0,
	}
	for _, tw := range s.byTenant {
		st.Windows += len(tw.wins)
		st.WindowsDropped += tw.dropped
		st.Tenants++
	}
	return st
}
