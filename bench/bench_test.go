package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"response"
)

const specPath = "../BENCHMARK.json"

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at smoke scale, untraced and traced,
// and holds what it prints against what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics declared; the limits are 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRe.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or declared twice", m.Name)
		}
		seen[m.Name] = true
	}

	dir := t.TempDir()
	for _, traced := range []string{"0", "1"} {
		out := filepath.Join(dir, "smoke-"+traced+".json")
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"-smoke", "-spec", specPath, "-trace", traced, "-out", out,
			"-spans", filepath.Join(dir, "spans.json")}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("-trace %s exited %d: %s", traced, code, stderr.String())
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Smoke || len(rep.Runs) != 1 || len(rep.Runs[0].Results) != len(spec.Workloads) {
			t.Fatalf("-trace %s: smoke=%v, %d runs; want one smoke run of %d workloads", traced, rep.Smoke, len(rep.Runs), len(spec.Workloads))
		}
		declared := spec.metrics(traced == "1")
		for _, res := range rep.Runs[0].Results {
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d: %v", res.Workload, traced, res.Correct, res.Attempted, res.Failures)
			}
			for _, m := range declared {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s -trace %s: declared metric %q not printed", res.Workload, traced, m.Name)
				}
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s -trace %s: printed %d metrics, %d declared", res.Workload, traced, len(res.Metrics), len(declared))
			}
		}
		// The driver reads the last line of a single-workload run.
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last.Metrics) != len(declared) {
			t.Errorf("-trace %s: last line is not the result object: %v", traced, err)
		}
		if code := compareFiles(spec, out, out, &stdout, &stderr); code == 0 {
			t.Errorf("-compare accepted a smoke result file")
		}
		if traced == "1" {
			var spans []span
			raw, err := os.ReadFile(filepath.Join(dir, "spans.json"))
			if err != nil || json.Unmarshal(raw, &spans) != nil || len(spans) == 0 {
				t.Errorf("traced run wrote no spans: %v", err)
			}
			for _, s := range spans {
				if s.Name == "" || s.Workload == "" || s.End < s.Start || s.ID == 0 {
					t.Fatalf("malformed span %+v", s)
				}
			}
		}
	}
}

// TestChecksFire corrupts what the run-time checks guard and expects
// each to object.
func TestChecksFire(t *testing.T) {
	inst, err := buildNet(fattree4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := response.NewPlanner(response.WithEndpoints(inst.Endpoints)).Plan(context.Background(), inst.Topo)
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := plan.WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(&clock{})
	if err := rereadArtifact(rec, raw.Bytes(), inst.Topo, 0); err != nil {
		t.Fatalf("intact artifact rejected: %v", err)
	}
	for _, at := range []int{raw.Len() / 3, raw.Len() / 2, raw.Len() - 2} {
		bad := append([]byte(nil), raw.Bytes()...)
		bad[at] ^= 0x40
		if err := rereadArtifact(rec, bad, inst.Topo, 0); err == nil {
			t.Errorf("artifact with byte %d flipped passed the round trip", at)
		}
	}
	if err := rereadArtifact(rec, raw.Bytes()[:raw.Len()-7], inst.Topo, 0); err == nil {
		t.Error("truncated artifact passed the round trip")
	}

	var tl tally
	tl.check(true, "fine")
	tl.check(false, "operation %d failed", 2)
	if tl.attempted != 2 || tl.failed != 1 || len(tl.failures) != 1 {
		t.Errorf("tally = %+v", tl)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3, ok := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value")
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	w := spec.Workloads[0].Name
	file := func(name string, failed int, values map[string][]float64) string {
		var rep report
		n := 0
		for _, v := range values {
			n = max(n, len(v))
		}
		for i := 0; i < n; i++ {
			res := &result{Workload: w, Failed: failed, Metrics: map[string]value{}}
			for m, v := range values {
				res.Metrics[m] = value{Value: v[i%len(v)]}
			}
			rep.Runs = append(rep.Runs, runRecord{Results: []*result{res}})
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// plan_cold_s (lower is better, 10 %) and ingest_events_per_s
	// (higher is better) carry the four verdicts.
	a := file("a.json", 0, map[string][]float64{
		"plan_cold_s": {1.00, 1.01, 0.99}, "replan_cold_s": {1.0, 1.0, 1.0},
		"replan_warm_s": {1.0, 1.6, 0.7}, "ingest_events_per_s": {100, 101, 99},
	})
	b := file("b.json", 0, map[string][]float64{
		"plan_cold_s": {1.00, 1.02, 0.98}, "replan_cold_s": {0.5, 0.5, 0.5},
		"replan_warm_s": {1.0, 1.1, 0.9}, "ingest_events_per_s": {50, 51, 49},
	})
	var out, errOut bytes.Buffer
	if code := compareFiles(spec, a, b, &out, &errOut); code != 1 {
		t.Errorf("a slower ingest exited %d, want 1\n%s", code, out.String())
	}
	for metric, verdict := range map[string]string{
		"plan_cold_s": "same", "replan_cold_s": "better", "replan_warm_s": "unresolved", "ingest_events_per_s": "worse",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in\n%s", metric, verdict, out.String())
		}
	}
	out.Reset()
	if code := compareFiles(spec, a, a, &out, &errOut); code != 0 {
		t.Errorf("A against A exited %d\n%s", code, out.String())
	}
	moreFailed := file("c.json", 3, map[string][]float64{"plan_cold_s": {1.0}})
	if code := compareFiles(spec, a, moreFailed, &out, &errOut); code != 1 {
		t.Errorf("more failed operations exited %d, want 1", code)
	}
}
