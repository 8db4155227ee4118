package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"response"
	"response/internal/topogen"
)

// value is one reported number with its unit and the sample count it
// was taken over (1 for counts and ratios).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// netInfo is what a netSpec generated: the size of the input the
// numbers beside it were measured on.
type netInfo struct {
	Topology   string `json:"topology"`
	Nodes      int    `json:"nodes"`
	Links      int    `json:"links"`
	Endpoints  int    `json:"endpoints"`
	Pairs      int    `json:"pairs"`
	StructSeed int64  `json:"struct_seed"`
}

func describe(inst *topogen.Instance) netInfo {
	return netInfo{
		Topology: inst.Topo.Name, Nodes: inst.Topo.NumNodes(), Links: inst.Topo.NumLinks(),
		Endpoints: len(inst.Endpoints), Pairs: inst.TM.Len(), StructSeed: structSeed,
	}
}

// result is what one workload run reports.
type result struct {
	Workload  string           `json:"workload"`
	Identity  shape            `json:"identity"`
	Engine    string           `json:"path_engine"`
	PlanNet   netInfo          `json:"planned"`
	Runtime   netInfo          `json:"runtime"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	WallS     float64          `json:"measured_wall_s"`
	Metrics   map[string]value `json:"metrics"`
}

// maxFailures bounds the failure messages a result keeps.
const maxFailures = 20

// run is the state of one workload run.
type run struct {
	sh     shape
	seed   int64
	traced bool
	reps   int // repetitions of each set-up step (its median is charged)
	ctx    context.Context

	rec *recorder

	setupS float64       // Σ median set-up step wall
	wall   time.Duration // Σ measured sections
	alloc  uint64        // Σ TotalAlloc over measured sections

	tally
	phaseSpans int // spans recorded by the four phases, before any probe

	plan    planState
	online  onlineState
	daemon  daemonState
	diag    diagState
	metrics map[string]float64 // emitted values by name
	counts  map[string]int     // sample count per emitted name
}

func newRun(ctx context.Context, sh shape, seed int64, traced bool, reps int) *run {
	return &run{
		sh: sh, seed: seed, traced: traced, reps: reps, ctx: ctx,
		rec:     newRecorder(&clock{workload: sh.Name, origin: time.Now(), traced: traced}),
		metrics: make(map[string]float64), counts: make(map[string]int),
	}
}

// rng returns the generator for one named use of the seed, so adding a
// consumer never shifts the values another one draws.
func (r *run) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1000003 + stream))
}

// tally counts verified outcomes: operations attempted and those that
// failed, with the first few reasons.
type tally struct {
	attempted, failed int
	failures          []string
}

// check counts one verified outcome; a false ok is a failed operation.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.failures) < maxFailures {
			t.failures = append(t.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// add folds another goroutine's tally in.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.failures = append(t.failures, o.failures...)
	if len(t.failures) > maxFailures {
		t.failures = t.failures[:maxFailures]
	}
}

// measured runs fn as part of the measured phase: its wall time and
// allocation count toward the run, set-up and probes do not.
func (r *run) measured(fn func() error) error {
	var before, after runtime.MemStats
	runtime.GC() // start from a collected heap: one phase's garbage is not the next one's GC bill
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	r.wall += time.Since(start)
	runtime.ReadMemStats(&after)
	r.alloc += after.TotalAlloc - before.TotalAlloc
	return err
}

// setupStep builds one piece of set-up r.reps times, charges the
// median wall to setup_s and returns the last build; earlier builds go
// to discard (nil when dropping the value is enough).
func setupStep[T any](r *run, name string, build func() (T, error), discard func(T)) (T, error) {
	var last T
	var walls []float64
	for i := 0; i < r.reps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		// Collect what the previous phase and repetition left behind, so
		// a step is not charged for sweeping someone else's garbage.
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, fmt.Errorf("set-up %s: %w", name, err)
		}
		walls = append(walls, time.Since(start).Seconds())
		last = v
	}
	r.setupS += median(walls)
	return last, nil
}

// e2e emits an end-to-end metric (untraced runs only); lay emits a
// per-layer metric (traced runs only). n is the sample count behind v.
func (r *run) e2e(name string, v float64, n int) {
	if !r.traced {
		r.metrics[name], r.counts[name] = v, n
	}
}

func (r *run) lay(name string, v float64, n int) {
	if r.traced {
		r.metrics[name], r.counts[name] = v, n
	}
}

// layMedian emits the median of a layer's samples scaled to the unit.
func (r *run) layMedian(name, sample string, scale float64) {
	v := r.rec.samples[sample]
	r.lay(name, median(v)*scale, len(v))
}

// execute drives the four phases in pipeline order and then the
// traced-only probes.
func (r *run) execute() error {
	for _, phase := range []func() error{r.planPhase, r.onlinePhase, r.daemonPhase, r.diagPhase} {
		if err := phase(); err != nil {
			return err
		}
	}
	if r.traced {
		r.phaseSpans = len(r.rec.spans)
		if err := r.probes(); err != nil {
			return err
		}
	}
	r.e2e("setup_s", r.setupS, r.reps)
	r.e2e("total_alloc_mb", float64(r.alloc)/1e6, 1)
	return nil
}

// finish checks the emitted names against the declared ones and
// assembles the result.
func (r *run) finish(spec *benchSpec) (*result, error) {
	res := &result{
		Workload: r.sh.Name, Identity: r.sh, Traced: r.traced,
		Engine: response.PathEngineReference, PlanNet: describe(r.plan.inst), Runtime: describe(r.online.inst),
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Correct: r.failed == 0, WallS: r.wall.Seconds(),
		Metrics: make(map[string]value),
	}
	declared := spec.metrics(r.traced)
	for _, m := range declared {
		v, ok := r.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: declared metric %q was not measured", r.sh.Name, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %q has no samples", r.sh.Name, m.Name)
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit, N: r.counts[m.Name]}
	}
	if len(r.metrics) != len(declared) {
		for name := range r.metrics {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("%s: measured metric %q is not declared in BENCHMARK.json", r.sh.Name, name)
			}
		}
	}
	return res, nil
}
