package spf

import (
	"testing"

	"response/internal/topo"
)

// Planner-hot-path micro-benchmarks. Run with -benchmem: the workspace
// refactor's contract is that repeated searches allocate only their
// returned paths, so allocs/op is the regression signal as much as
// ns/op.

func BenchmarkShortestTree(b *testing.B) {
	g := topo.NewGeant()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ShortestTree(g, 0, Options{})
	}
}

// BenchmarkShortestPathWorkspace measures the allocation-free early-exit
// search the mcf feasibility router issues hundreds of thousands of
// times per plan.
func BenchmarkShortestPathWorkspace(b *testing.B) {
	g := topo.NewGeant()
	ws := NewWorkspace()
	n := topo.NodeID(g.NumNodes() - 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ws.ShortestPath(g, 0, n, Options{}); !ok {
			b.Fatal("no path")
		}
	}
}

// BenchmarkShortestPathLoad is the same query through the compiled
// load-aware kernel, over a half-loaded network: the form every mcf
// routing pass issues. The compile step is outside the loop, as it is
// outside a pass's query loop.
func BenchmarkShortestPathLoad(b *testing.B) {
	g := topo.NewGeant()
	ws := NewWorkspace()
	lg := ws.LoadGraph()
	lg.Compile(g, nil, nil, nil, 1)
	load := make([]float64, g.NumArcs())
	for i, a := range g.Arcs() {
		load[i] = a.Capacity * float64(i%3) / 4
	}
	n := topo.NodeID(g.NumNodes() - 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ws.ShortestPathLoad(g, lg, 0, n, load, 1, 3); !ok {
			b.Fatal("no path")
		}
	}
}

func BenchmarkKShortest(b *testing.B) {
	g := topo.NewGeant()
	n := topo.NodeID(g.NumNodes() - 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := KShortest(g, 0, n, 8, Options{}); len(got) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkECMPPaths(b *testing.B) {
	ft, err := topo.NewFatTree(4, topo.FatTreeOpts{WithHosts: true})
	if err != nil {
		b.Fatal(err)
	}
	hosts := ft.Topology.NodesOfKind(topo.KindHost)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ECMPPaths(ft.Topology, hosts[0], hosts[len(hosts)-1], 16, Options{Weight: Hops()}); len(got) == 0 {
			b.Fatal("no paths")
		}
	}
}
