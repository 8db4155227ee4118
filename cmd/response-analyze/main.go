// Command response-analyze regenerates the paper's §3 trace analytics:
// Figure 1a (traffic deviation CCDF), Figure 1b (recomputation rate),
// Figure 2a (configuration dominance) and Figure 2b (energy-critical
// path coverage).
//
// Usage:
//
//	response-analyze -fig 1a|1b|2a|2b|all [-days N] [-stride N] [-csv file]
//	response-analyze diff [-topo spec] [-json] [-warm [-warmtol f]] <planA> <planB>
//	response-analyze trace [-tenant t] [-severity sev] [-json] <trace.jsonl|->
//	response-analyze trace -summary <start> | -critical-path <start> [-k N] | -events [filters] <trace.jsonl|->
//
// The diff subcommand compares two plan-artifact files (the format
// response.Plan.WriteTo emits and the controld daemon shelves) and
// prints the structural delta: pair-table changes, the pinned-link
// delta and the always-on power delta. -topo names the topology the
// plans were computed for: a builtin ("geant", "abovenet", "genuity")
// or a generator spec "gen:<family>:<size>:<seed>". With -warm the
// second plan is additionally judged as a warm-started replan of the
// first — the run fails unless it is fingerprint-identical or
// power-equal within the tolerance with an exact always-on stage.
//
// The trace subcommand ingests a JSONL event trace (a -trace file from
// response-sim, "-" for stdin, or a multi-tenant stream captured from
// controld's /events) into an in-memory trace store and answers the
// progressive-disclosure queries: the default mode lists search
// windows (triage first, never the whole trace), -summary drills into
// one window's affected links, -critical-path ranks the window's
// links by energy-criticality (HITS over the event→link incidence,
// seeded with utilization at failure time), and -events retrieves
// individual events. See DESIGN.md §11.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"response"
	"response/experiments"
	"response/internal/topogen"
	"response/internal/verify"
	"response/topology"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		runDiff(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		runTrace(os.Args[2:])
		return
	}
	fig := flag.String("fig", "all", "figure to regenerate: 1a, 1b, 2a, 2b or all")
	days := flag.Int("days", 4, "trace length in days (paper: 15 for GÉANT, 8 for the DC)")
	stride := flag.Int("stride", 2, "interval sub-sampling stride for replays")
	csv := flag.String("csv", "", "also write raw curve data as CSV to this file")
	flag.Parse()

	switch *fig {
	case "1a":
		res := experiments.RunFig1a(*days)
		res.Print(os.Stdout)
		if *csv != "" {
			writeCSV(*csv, func(f *os.File) error {
				return experiments.WritePoints(f, "change_pct", "ccdf", res.CCDF)
			})
		}
	case "1b":
		res, err := experiments.RunFig1b(*days, *stride)
		if err != nil {
			log.Fatal(err)
		}
		res.Print(os.Stdout)
	case "2a":
		res, err := experiments.RunFig1b(*days, *stride)
		if err != nil {
			log.Fatal(err)
		}
		res.PrintFig2a(os.Stdout)
	case "2b":
		res, err := experiments.RunFig2b(*days, *stride, 2, 12)
		if err != nil {
			log.Fatal(err)
		}
		res.Print(os.Stdout)
	case "all":
		experiments.RunFig1a(*days).Print(os.Stdout)
		fmt.Println()
		fb, err := experiments.RunFig1b(*days, *stride)
		if err != nil {
			log.Fatal(err)
		}
		fb.Print(os.Stdout)
		fmt.Println()
		fb.PrintFig2a(os.Stdout)
		fmt.Println()
		f2b, err := experiments.RunFig2b(*days, *stride, 2, 12)
		if err != nil {
			log.Fatal(err)
		}
		f2b.Print(os.Stdout)
	default:
		log.Fatalf("unknown figure %q", *fig)
	}
}

// runDiff implements `response-analyze diff <a> <b>`.
func runDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	topoSpec := fs.String("topo", "geant",
		`topology the plans were computed for: builtin name or "gen:<family>:<size>:<seed>"`)
	asJSON := fs.Bool("json", false, "emit the diff as JSON instead of the table")
	warm := fs.Bool("warm", false,
		"judge <planB> as a warm-started replan of <planA>: report fingerprint identity or power-equality within -warmtol")
	warmTol := fs.Float64("warmtol", 0, "warm-start power tolerance for -warm (0 = the default 5%)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 2 {
		log.Fatalf("usage: response-analyze diff [-topo spec] [-json] [-warm [-warmtol f]] <planA> <planB>")
	}
	g, err := resolveTopo(*topoSpec)
	if err != nil {
		log.Fatal(err)
	}
	a := readPlanFile(fs.Arg(0), g)
	b := readPlanFile(fs.Arg(1), g)
	d, err := response.DiffPlans(a, b)
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			log.Fatal(err)
		}
		if *warm {
			printWarmVerdict(os.Stdout, g, a, b, *warmTol)
		}
		return
	}
	d.Print(os.Stdout)
	if *warm {
		printWarmVerdict(os.Stdout, g, a, b, *warmTol)
	}
}

// printWarmVerdict applies the warm-start differential oracle: planB
// passes as a warm replan of planA if it is fingerprint-identical or
// power-equal within the tolerance with an exact always-on stage.
func printWarmVerdict(w *os.File, g *topology.Topology, a, b *response.Plan, tol float64) {
	rep, identical := verify.DiffWarmStart(g, a, b, tol)
	switch {
	case identical:
		fmt.Fprintf(w, "warm-start: fingerprint-identical (%016x)\n", b.Fingerprint())
	case rep.Ok():
		fmt.Fprintf(w, "warm-start: power-equal within tolerance (always-on stage exact)\n")
	default:
		fmt.Fprintf(w, "warm-start: INCOMPATIBLE\n")
		for _, v := range rep.Violations {
			fmt.Fprintf(w, "  %s\n", v)
		}
		os.Exit(1)
	}
}

// resolveTopo parses the -topo spec.
func resolveTopo(spec string) (*topology.Topology, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 4 || parts[0] != "gen" {
		g, err := topology.Builtin(spec)
		if err != nil {
			return nil, fmt.Errorf(`-topo: %w, or "gen:<family>:<size>:<seed>"`, err)
		}
		return g, nil
	}
	size, err := strconv.Atoi(parts[2])
	if err != nil {
		return nil, fmt.Errorf("-topo %q: bad size: %v", spec, err)
	}
	seed, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("-topo %q: bad seed: %v", spec, err)
	}
	inst, err := topogen.Generate(topogen.Config{
		Family: topogen.Family(parts[1]), Size: size, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return inst.Topo, nil
}

func readPlanFile(path string, g *topology.Topology) *response.Plan {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	plan, err := response.ReadPlanFrom(f, g)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return plan
}

func writeCSV(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", path)
}
