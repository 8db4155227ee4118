package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

// readReport reads a result file written by -out.
func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s is not a result file: %w", path, err)
	}
	return &rep, nil
}

// loadReport reads a result file for comparison, which smoke-scale
// results are refused.
func loadReport(path string) (*report, error) {
	rep, err := readReport(path)
	if err == nil && rep.Smoke {
		return nil, fmt.Errorf("%s holds smoke-scale results, which measure nothing", path)
	}
	return rep, err
}

// appendReport adds this invocation's runs to the result file at path,
// so one file can hold the repeated runs a spread is taken over.
func appendReport(path string, rep report) error {
	old, err := readReport(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	case old.Smoke != rep.Smoke:
		return fmt.Errorf("%s mixes smoke and full-scale runs", path)
	default:
		rep.Runs = append(old.Runs, rep.Runs...)
	}
	return writeJSON(path, rep)
}

// collect gathers every untraced value of a file by (workload, metric),
// and the operations that failed per workload.
func collect(rep *report) (map[[2]string][]float64, map[string]int) {
	out := make(map[[2]string][]float64)
	failed := make(map[string]int)
	for _, run := range rep.Runs {
		for _, res := range run.Results {
			if res.Traced {
				continue // per-layer numbers carry no bound
			}
			failed[res.Workload] += res.Failed
			for name, m := range res.Metrics {
				k := [2]string{res.Workload, name}
				out[k] = append(out[k], m.Value)
			}
		}
	}
	return out, failed
}

// quartiles are Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// gives them (the exclusive method), so a spread printed here is the
// spread the acceptance driver computes. ok is false below two values.
func quartiles(v []float64) (q1, q3 float64, ok bool) {
	n := len(v)
	if n < 2 {
		return 0, 0, false
	}
	s := sorted(v)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), true
}

// compareFiles applies BENCHMARK.json's bounds to two result files and
// prints one row per (workload, end-to-end metric). B is worse when its
// median is worse than A's by more than the bound; a metric whose
// run-to-run spread inside A exceeds its bound cannot decide that and
// is unresolved unless the two files do not even overlap.
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	repA, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	repB, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, failedA := collect(repA)
	b, failedB := collect(repB)

	status := 0
	fmt.Fprintf(stdout, "%-16s %-24s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "change", "spread A", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			k := [2]string{w.Name, m.Name}
			va, vb := a[k], b[k]
			if len(va) == 0 || len(vb) == 0 {
				continue // a file may hold a subset of the workloads
			}
			medA, medB := median(va), median(vb)
			// worse > 0 means B is worse, whatever the metric's direction.
			worse := (medB - medA) / math.Abs(medA)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := 0.0
			if q1, q3, ok := quartiles(va); ok {
				spread = (q3 - q1) / math.Abs(medA)
			}
			verdict := "same"
			switch {
			case spread > m.Bound && !disjoint(va, vb):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				status = 1
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(stdout, "%-16s %-24s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, medA, medB, 100*(medB-medA)/math.Abs(medA), 100*spread, 100*m.Bound, verdict)
		}
		if failedB[w.Name] > failedA[w.Name] {
			fmt.Fprintf(stdout, "%-16s %d operations failed in B, %d in A  worse\n", w.Name, failedB[w.Name], failedA[w.Name])
			status = 1
		}
	}
	return status
}

// disjoint reports whether every value of one side lies beyond every
// value of the other.
func disjoint(a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	return sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
}
