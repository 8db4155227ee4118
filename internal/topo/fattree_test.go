package topo

import "testing"

func TestFatTreeCounts(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		ft, err := NewFatTree(k, FatTreeOpts{WithHosts: true})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		half := k / 2
		if got, want := len(ft.Core), half*half; got != want {
			t.Errorf("k=%d core = %d, want %d", k, got, want)
		}
		if got, want := len(ft.AllHosts()), k*k*k/4; got != want {
			t.Errorf("k=%d hosts = %d, want %d", k, got, want)
		}
		// Switch count: (k/2)^2 core + k pods × k aggr+edge.
		switches := 0
		for _, n := range ft.Nodes() {
			if n.Kind != KindHost {
				switches++
			}
		}
		if want := half*half + k*k; switches != want {
			t.Errorf("k=%d switches = %d, want %d", k, switches, want)
		}
		// Links: pod fabric k×(k/2)^2 + uplinks k×(k/2)^2 + host k^3/4.
		if got, want := ft.NumLinks(), k*half*half*2+k*k*k/4; got != want {
			t.Errorf("k=%d links = %d, want %d", k, got, want)
		}
		if err := ft.Validate(); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		if !ft.Connected() {
			t.Errorf("k=%d: disconnected", k)
		}
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	for _, k := range []int{0, 1, 3, -2} {
		if _, err := NewFatTree(k, FatTreeOpts{}); err == nil {
			t.Errorf("k=%d should be rejected", k)
		}
	}
}

func TestFatTreeWithoutHosts(t *testing.T) {
	ft, err := NewFatTree(4, FatTreeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.AllHosts()) != 0 {
		t.Error("hosts should be absent")
	}
	if ft.NumNodes() != 20 { // 4 core + 16 pod switches
		t.Errorf("nodes = %d, want 20", ft.NumNodes())
	}
}

func TestFatTreePodOf(t *testing.T) {
	ft, err := NewFatTree(4, FatTreeOpts{WithHosts: true})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		for _, id := range ft.Edge[p] {
			if ft.PodOf(id) != p {
				t.Errorf("edge %d pod = %d, want %d", id, ft.PodOf(id), p)
			}
		}
		for _, id := range ft.Hosts[p] {
			if ft.PodOf(id) != p {
				t.Errorf("host %d pod = %d, want %d", id, ft.PodOf(id), p)
			}
		}
	}
	for _, id := range ft.Core {
		if ft.PodOf(id) != -1 {
			t.Errorf("core %d pod = %d, want -1", id, ft.PodOf(id))
		}
	}
}

func TestFatTree36CoreForFig2b(t *testing.T) {
	// The paper's Figure 2b uses a fat-tree with 36 core switches,
	// i.e. k=12.
	ft, err := NewFatTree(12, FatTreeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Core) != 36 {
		t.Fatalf("k=12 core = %d, want 36", len(ft.Core))
	}
}

func TestFatTreeEdgeAggrFullBipartite(t *testing.T) {
	ft, err := NewFatTree(4, FatTreeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		for _, e := range ft.Edge[p] {
			for _, a := range ft.Aggr[p] {
				if _, ok := ft.ArcBetween(e, a); !ok {
					t.Errorf("pod %d: edge %d not connected to aggr %d", p, e, a)
				}
			}
		}
	}
}
