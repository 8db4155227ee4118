// Command bench is the repository's one benchmark: every workload
// drives the whole stack — plan offline, run online, operate through
// the daemon, diagnose from the trace — by timing calls into the
// layers' existing public functions from outside. BENCHMARK.json at
// the repository root declares the workloads, the metrics and their
// bounds; README.md says why each exists and what should move what.
//
//	bash bench/run.sh -seed 1                        every workload, end-to-end metrics
//	bash bench/run.sh -seed 1 -trace 1               every workload, per-layer metrics + spans
//	bash bench/run.sh -workload plan-waxman50        one workload
//	bash bench/run.sh -seed 1 -out A.json            append the results to A.json for -compare
//	bash bench/run.sh -compare A.json B.json         apply the bounds to two result files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envelope says where and when a result file's numbers were taken; the
// workload identity rides with each result.
type envelope struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Date       string `json:"date"`
	Load       string `json:"load"`
}

// runRecord is one invocation: its envelope and the workloads it ran.
type runRecord struct {
	Envelope envelope  `json:"envelope"`
	Results  []*result `json:"results"`
}

// report is a result file: what -out appends to and -compare reads.
type report struct {
	Smoke bool        `json:"smoke"`
	Runs  []runRecord `json:"runs"`
}

// loadStatement is the load model of the daemon phase, stated in every
// output as the networking sheet asks.
const loadStatement = "one process; controld: closed loop, 2 clients, host loopback (httptest)"

// commit names the checkout's HEAD, or "unknown" where the working
// directory is not the root of a git checkout (the driver's is not; git
// would otherwise answer for whatever repository lies above it).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (default: all, in BENCHMARK.json order)")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Int("seconds", 0, "scale the frozen operation counts from run_seconds to this many seconds")
		trace    = fs.Int("trace", 0, "1: record spans, run the layer probes and report the per-layer metrics")
		smoke    = fs.Bool("smoke", false, "test scale; results are marked and refused by -compare")
		compare  = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
		out      = fs.String("out", "", "also append the results, with envelope, to this result file")
		spansOut = fs.String("spans", filepath.Join(".bench_build", "spans.json"), "where a traced run writes its spans")
		specPath = fs.String("spec", "BENCHMARK.json", "the benchmark declaration")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments; -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}

	var todo []shape
	for _, w := range spec.Workloads {
		sh, ok := shapeByName(w.Name)
		if !ok {
			fmt.Fprintf(stderr, "bench: BENCHMARK.json names workload %q, which bench/shapes.go does not define\n", w.Name)
			return 2
		}
		if *workload == "" || *workload == w.Name {
			todo = append(todo, sh)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	rec := runRecord{Envelope: envelope{
		Commit: commit(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: *seconds, Date: time.Now().UTC().Format(time.RFC3339), Load: loadStatement,
	}}
	envJSON, _ := json.Marshal(rec.Envelope)
	fmt.Fprintf(stdout, "envelope %s smoke=%v\n", envJSON, *smoke)

	var spans []span
	status := 0
	for _, sh := range todo {
		reps := 3
		if *smoke {
			sh, reps = sh.smoke(), 1
		} else {
			sh = sh.scaled(*seconds)
		}
		r := newRun(context.Background(), sh, *seed, *trace == 1, reps)
		if err := r.execute(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", sh.Name, err)
			return 1
		}
		res, err := r.finish(spec)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		rec.Results = append(rec.Results, res)
		spans = append(spans, r.rec.spans...)
		printResult(stdout, spec, res)
		if !res.Correct {
			status = 1
		}
	}
	if *trace == 1 {
		if err := writeJSON(*spansOut, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendReport(*out, report{Smoke: *smoke, Runs: []runRecord{rec}}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// printResult prints one workload: its identity, every metric by name
// with unit and sample count, and last the driver's result line.
func printResult(w io.Writer, spec *benchSpec, res *result) {
	id, _ := json.Marshal(res.Identity)
	planned, _ := json.Marshal(res.PlanNet)
	runtime, _ := json.Marshal(res.Runtime)
	fmt.Fprintf(w, "workload %s traced=%v engine=%s identity %s planned %s runtime %s\n",
		res.Workload, res.Traced, res.Engine, id, planned, runtime)
	fmt.Fprintf(w, "  why: %s\n", spec.why(res.Workload))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-16s %-40s %16.6g %-10s n=%d\n", res.Workload, name, m.Value, m.Unit, m.N)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]metric, len(res.Metrics))}
	for name, m := range res.Metrics {
		line.Metrics[name] = metric{m.Value, m.Unit}
	}
	raw, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", raw)
}

func writeJSON(path string, v any) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
