// Command response-bench runs the complete evaluation — every figure
// and table of the paper — and prints paper-style output with the
// published numbers alongside for comparison. This is the one-shot
// reproduction entry point; DESIGN.md §5 indexes the experiments.
//
// Performance is measured elsewhere: bash bench/run.sh (DESIGN.md §5.1).
//
// Usage:
//
//	response-bench [-quick]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"response/experiments"
	"response/topology"
)

func main() {
	quick := flag.Bool("quick", false, "smaller traces (2 days, coarser strides)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(flag.CommandLine.Output(), "response-bench: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	days, stride := 8, 2
	if *quick {
		days, stride = 2, 4
	}
	start := time.Now()
	section := func(name string) {
		fmt.Printf("\n=== %s (t+%s) ===\n", name, time.Since(start).Round(time.Second))
	}

	section("Figure 1a")
	experiments.RunFig1a(days).Print(os.Stdout)

	section("Figures 1b / 2a / 2b(GÉANT)")
	fb, err := experiments.RunFig1b(days, stride)
	fail(err)
	fb.Print(os.Stdout)
	fmt.Println()
	fb.PrintFig2a(os.Stdout)

	section("Figure 2b")
	f2b, err := experiments.RunFig2b(days, stride, 2, 12)
	fail(err)
	f2b.Print(os.Stdout)

	section("Figure 4")
	f4, err := experiments.RunFig4(20)
	fail(err)
	f4.Print(os.Stdout)

	section("Figure 5")
	f5, err := experiments.RunFig5(days)
	fail(err)
	f5.Print(os.Stdout)

	section("Figure 6")
	f6, err := experiments.RunFig6()
	fail(err)
	f6.Print(os.Stdout)

	section("Figure 7")
	f7, err := experiments.RunFig7()
	fail(err)
	f7.Print(os.Stdout)

	section("Figure 8a")
	f8a, err := experiments.RunFig8a()
	fail(err)
	f8a.Print(os.Stdout)

	section("Figure 8b")
	f8b, err := experiments.RunFig8b()
	fail(err)
	f8b.Print(os.Stdout)

	section("Figure 9")
	f9, err := experiments.RunFig9()
	fail(err)
	f9.Print(os.Stdout)

	section("Web workload")
	web, err := experiments.RunWeb()
	fail(err)
	web.Print(os.Stdout)

	section("§4.1 always-on capacity share")
	for _, t := range []*topology.Topology{topology.NewGeant(), topology.NewGenuity()} {
		share, err := experiments.RunAlwaysOnShare(t)
		fail(err)
		fmt.Printf("  %s: always-on paths carry %.0f%% of OSPF-routable volume (paper: ≈50%%)\n",
			share.Topology, share.Share*100)
	}

	section("§4.2 stress-exclusion sensitivity")
	sweep, err := experiments.RunStressSweep([]float64{0, 0.1, 0.2, 0.3, 0.4})
	fail(err)
	sweep.Print(os.Stdout)

	fmt.Printf("\ntotal runtime: %s\n", time.Since(start).Round(time.Second))
}

func fail(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
