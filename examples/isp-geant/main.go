// Command isp-geant reproduces the shape of the paper's Figure 5: a
// multi-day replay of GÉANT traffic matrices over a REsPoNse plan that
// is computed exactly once. Power is reported for today's hardware
// (Cisco 12000-class) and the paper's "alternative" model with a 10×
// cheaper chassis, against the OSPF baseline that keeps everything on.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"response"
	"response/experiments"
	"response/topology"
	"response/trafficmatrix"
)

func main() {
	days := flag.Int("days", 3, "trace length in days (the paper uses 15)")
	flag.Parse()

	g := topology.NewGeant()
	model := response.Cisco12000{}
	alt := response.AlternativePower{Base: model}

	// Synthetic GÉANT trace: per the paper (§5.1), origins and
	// destinations are a random subset of the PoPs — the rest are
	// transit-only and may sleep entirely. The gravity base is scaled
	// so the diurnal peak sits at a realistic ISP operating point.
	endpoints := experiments.EndpointSubset(g, 0.6, 404)
	base := trafficmatrix.Gravity(g, trafficmatrix.GravityOpts{Nodes: endpoints, TotalRate: 1})
	maxScale := response.MaxRoutableScale(g, base)
	series := trafficmatrix.DiurnalSeries(base.Scale(maxScale*0.3), trafficmatrix.DiurnalOpts{
		Days: *days, Seed: 25,
	})
	fmt.Printf("replaying %d days of 15-min GÉANT matrices (%d intervals, %d endpoint PoPs)\n",
		*days, len(series.Matrices), len(endpoints))

	// One planning run serves the whole replay — the paper's headline.
	plan, err := response.NewPlanner(response.WithEndpoints(endpoints)).
		Plan(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}

	var today, future []float64
	for _, m := range series.Matrices {
		today = append(today, plan.Evaluate(m, model, 0.9).PctOfFull)
		future = append(future, plan.Evaluate(m, alt, 0.9).PctOfFull)
	}
	fmt.Println("\n             ospf   REsPoNse   REsPoNse(alt HW)")
	fmt.Printf("mean power   100%%    %5.1f%%      %5.1f%%\n", mean(today), mean(future))
	fmt.Printf("max power    100%%    %5.1f%%      %5.1f%%\n", max64(today), max64(future))
	fmt.Printf("savings        0%%    %5.1f%%      %5.1f%%\n",
		100-mean(today), 100-mean(future))
	fmt.Println("\nroute-table recomputations during the replay: 0 (by construction)")

	// A compressed daily profile: mean power per 3-hour bucket.
	fmt.Println("\ndaily profile (power % of full, averaged across days):")
	var bucketSum [8]float64
	var bucketN [8]int
	for i, p := range today {
		hour := int(float64(i)*series.IntervalSec/3600) % 24
		bucketSum[hour/3] += p
		bucketN[hour/3]++
	}
	for b := range bucketSum {
		avg := 0.0
		if bucketN[b] > 0 {
			avg = bucketSum[b] / float64(bucketN[b])
		}
		fmt.Printf("  %02d:00-%02d:00  %5.1f%%\n", b*3, b*3+3, avg)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func max64(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
