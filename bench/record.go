package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// span is one benchmark-side trace record: a call into a layer, timed
// from outside. Times are nanoseconds since the run started.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"` // 0 = the workload itself
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Iter     int    `json:"iteration"`
}

// clock is what every recorder of one run shares: the time origin, the
// span id counter and whether spans are kept at all.
type clock struct {
	workload string
	origin   time.Time
	traced   bool
	nextID   atomic.Int64
}

// recorder collects the timings of one goroutine. op samples exist in
// every run (the end-to-end metrics come from them); layer samples
// and spans exist only in a traced run.
type recorder struct {
	clk     *clock
	stack   []int64
	spans   []span
	samples map[string][]float64 // seconds, in recording order
}

func newRecorder(clk *clock) *recorder {
	return &recorder{clk: clk, samples: make(map[string][]float64)}
}

// fork returns a recorder for another goroutine whose spans hang under
// the caller's current span; merge folds it back once that goroutine
// has finished.
func (rc *recorder) fork() *recorder {
	child := newRecorder(rc.clk)
	if n := len(rc.stack); n > 0 {
		child.stack = []int64{rc.stack[n-1]}
	}
	return child
}

func (rc *recorder) merge(child *recorder) {
	rc.spans = append(rc.spans, child.spans...)
	for name, v := range child.samples {
		rc.samples[name] = append(rc.samples[name], v...)
	}
}

// op times fn as one sample of name. It is the only clock the
// end-to-end metrics read, so it runs identically traced or not; a
// traced run additionally keeps the span, with the spans fn records
// under it.
func (rc *recorder) op(name string, iter int, fn func()) time.Duration {
	var id int64
	if rc.clk.traced {
		id = rc.clk.nextID.Add(1)
		rc.stack = append(rc.stack, id)
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	if rc.clk.traced {
		rc.stack = rc.stack[:len(rc.stack)-1]
	}
	rc.keep(id, name, iter, start, d)
	return d
}

// layer is op for calls only the traced run times: untraced it calls
// fn and reads no clock.
func (rc *recorder) layer(name string, iter int, fn func()) {
	if !rc.clk.traced {
		fn()
		return
	}
	rc.op(name, iter, fn)
}

// interval records an already measured stretch as a child of the
// current span — stage boundaries reported by a callback. Traced runs
// only.
func (rc *recorder) interval(name string, iter int, start, end time.Time) {
	if rc.clk.traced {
		rc.keep(rc.clk.nextID.Add(1), name, iter, start, end.Sub(start))
	}
}

// keep stores one sample and, traced, its span under the span now open.
func (rc *recorder) keep(id int64, name string, iter int, start time.Time, d time.Duration) {
	rc.samples[name] = append(rc.samples[name], d.Seconds())
	if !rc.clk.traced {
		return
	}
	var parent int64
	if n := len(rc.stack); n > 0 {
		parent = rc.stack[n-1]
	}
	from := start.Sub(rc.clk.origin).Nanoseconds()
	rc.spans = append(rc.spans, span{
		ID: id, Parent: parent, Name: name, Start: from, End: from + d.Nanoseconds(),
		Workload: rc.clk.workload, Iter: iter,
	})
}

// sorted returns a sorted copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of v (NaN when empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

func lastOf(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return v[len(v)-1]
}
