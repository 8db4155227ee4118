// Command response-paths precomputes, prints, exports and reloads the
// REsPoNse routing tables of a topology: the always-on, on-demand and
// failover paths of every origin-destination pair, plus the always-on
// element set and tunnel accounting relevant to deployment (§4.5).
//
// Usage:
//
//	response-paths [print] -topo geant|abovenet|genuity|pop-access|fattree4|fig3
//	               [-n 3] [-beta 0] [-mode stress|ospf|heuristic] [-pairs 5]
//	response-paths export -out plan.rplan [same planning flags]
//	response-paths load -in plan.rplan -topo geant [-pairs 5]
//
// export writes the plan in the versioned artifact format
// (response.ArtifactVersion); load installs it against the named
// topology — refusing version skew or a topology mismatch — and prints
// it exactly as print would, demonstrating the paper's compute-once /
// install-anywhere deployment model.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"response"
	"response/topology"
	"response/trafficmatrix"
)

func main() {
	log.SetFlags(0)
	args := os.Args[1:]
	cmd := "print"
	if len(args) > 0 && (args[0] == "print" || args[0] == "export" || args[0] == "load") {
		cmd, args = args[0], args[1:]
	}

	fs := flag.NewFlagSet("response-paths "+cmd, flag.ExitOnError)
	name := fs.String("topo", "geant", "topology: geant, abovenet, genuity, pop-access, fattree4, fig3")
	showPairs := fs.Int("pairs", 5, "number of pairs to print in full")
	var n *int
	var beta *float64
	var mode, out *string
	if cmd != "load" {
		n = fs.Int("n", 3, "number of energy-critical paths per pair")
		beta = fs.Float64("beta", 0, "latency bound β (>0 enables REsPoNse-lat)")
		mode = fs.String("mode", "stress", "on-demand mode: stress, ospf, heuristic")
	}
	if cmd == "export" {
		out = fs.String("out", "plan.rplan", "artifact file to write")
	}
	var in *string
	if cmd == "load" {
		in = fs.String("in", "plan.rplan", "artifact file to read")
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		log.Fatalf("unexpected arguments %q (subcommands go first: response-paths %s ... )",
			fs.Args(), cmd)
	}

	t, err := buildTopo(*name)
	if err != nil {
		log.Fatal(err)
	}

	var plan *response.Plan
	if cmd == "load" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		plan, err = response.ReadPlanFrom(f, t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %s (fingerprint %016x)\n", *in, plan.Fingerprint())
	} else {
		opts := []response.Option{
			response.WithPaths(*n),
			response.WithDelayBound(*beta),
		}
		switch *mode {
		case "stress":
			opts = append(opts, response.WithMode(response.ModeStress))
		case "ospf":
			opts = append(opts, response.WithMode(response.ModeOSPF))
		case "heuristic":
			base := trafficmatrix.Gravity(t, trafficmatrix.GravityOpts{TotalRate: 1})
			scale := response.MaxRoutableScale(t, base)
			opts = append(opts,
				response.WithMode(response.ModeHeuristic),
				response.WithPeakMatrix(base.Scale(scale*0.9)))
		default:
			log.Fatalf("unknown mode %q", *mode)
		}
		plan, err = response.NewPlanner(opts...).Plan(context.Background(), t)
		if err != nil {
			log.Fatal(err)
		}
	}

	if cmd == "export" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		nbytes, err := plan.WriteTo(f)
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d bytes, format v%d, fingerprint %016x\n",
			*out, nbytes, response.ArtifactVersion, plan.Fingerprint())
		return
	}

	printPlan(t, plan, *showPairs)
}

func printPlan(t *topology.Topology, plan *response.Plan, showPairs int) {
	model := response.Cisco12000{}
	fmt.Printf("topology: %s\nvariant:  %s\n", t, plan.Variant())
	r, l := plan.AlwaysOnSet().CountOn()
	fmt.Printf("always-on set: %d/%d routers, %d/%d links\n",
		r, t.NumNodes(), l, t.NumLinks())
	fmt.Printf("installed tunnels: %d total, max %d per node (2005-era budget: ≈600)\n",
		plan.TunnelCount(), plan.MaxTunnelsPerNode())
	full := response.FullWatts(t, model)
	aon := response.NetworkWatts(t, model, plan.AlwaysOnSet())
	fmt.Printf("power: full %.1f kW, always-on set %.1f kW (%.0f%%)\n\n",
		full/1000, aon/1000, 100*aon/full)

	keys := plan.Pairs()
	for i, k := range keys {
		if i >= showPairs {
			fmt.Printf("... %d more pairs\n", len(keys)-i)
			break
		}
		ps, _ := plan.PathSet(k[0], k[1])
		fmt.Printf("%s -> %s\n", t.Node(k[0]).Name, t.Node(k[1]).Name)
		fmt.Printf("  always-on: %s (%.1f ms)\n",
			ps.AlwaysOn.Format(t), ps.AlwaysOn.Latency(t)*1000)
		for j, p := range ps.OnDemand {
			fmt.Printf("  on-demand[%d]: %s (%.1f ms)\n", j, p.Format(t), p.Latency(t)*1000)
		}
		fmt.Printf("  failover: %s (%.1f ms, %d shared links with always-on)\n",
			ps.Failover.Format(t), ps.Failover.Latency(t)*1000,
			ps.Failover.SharedLinks(t, ps.AlwaysOn))
	}
}

func buildTopo(name string) (*topology.Topology, error) {
	switch name {
	case "pop-access":
		return topology.NewPopAccess().Topology, nil
	case "fattree4":
		ft, err := topology.NewFatTree(4, topology.FatTreeOpts{WithHosts: true})
		if err != nil {
			return nil, err
		}
		return ft.Topology, nil
	case "fig3":
		return topology.NewExample(topology.ExampleOpts{}).Topology, nil
	}
	g, err := topology.Builtin(name)
	if err != nil {
		return nil, fmt.Errorf("%w, or pop-access, fattree4, fig3", err)
	}
	return g, nil
}
