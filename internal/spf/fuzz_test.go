package spf_test

// FuzzKShortestEngines cross-checks the goal-directed engines against
// the reference on mutated generated topologies, including ones whose
// active subset is disconnected: for arbitrary (family, size, seed,
// link knockout, query) tuples the engines must not panic and must
// return exactly the reference's paths — or the same "no path" verdict.
// The same mutated instance also goes through the load-aware kernel's
// differential oracle (diffLoadKernel), which derives its avoid set,
// loads and rates from the knockout word.

import (
	"math/rand"
	"testing"

	"response/internal/spf"
	"response/internal/topo"
	"response/internal/topogen"
)

func FuzzKShortestEngines(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint16(0), uint16(3), uint8(3), uint64(0))
	f.Add(int64(2), uint8(1), uint8(20), uint16(2), uint16(9), uint8(5), uint64(0x5a5a))
	f.Add(int64(3), uint8(2), uint8(8), uint16(1), uint16(4), uint8(2), uint64(0xffff))
	f.Add(int64(4), uint8(3), uint8(3), uint16(5), uint16(6), uint8(4), uint64(1))
	f.Add(int64(5), uint8(4), uint8(3), uint16(7), uint16(2), uint8(1), uint64(0xdead))
	// Load kernel on a tie-saturated fat-tree with a quarter of its links dark.
	f.Add(int64(6), uint8(0), uint8(1), uint16(1), uint16(6), uint8(2), uint64(0x10ad))
	f.Fuzz(func(t *testing.T, seed int64, famIdx, size uint8, oi, di uint16, k uint8, knockout uint64) {
		fams := topogen.Families()
		fam := fams[int(famIdx)%len(fams)]
		var sz int
		switch fam {
		case topogen.FamilyFatTree:
			sz = 2 + 2*int(size%3)
		case topogen.FamilyWaxman:
			sz = 4 + int(size%28)
		case topogen.FamilyRing:
			sz = 3 + int(size%12)
		case topogen.FamilyTorus:
			sz = 3 + int(size%2)
		default: // isp
			sz = 3 + int(size%3)
		}
		inst, err := topogen.Generate(topogen.Config{Family: fam, Size: sz, Seed: 1 + seed%8})
		if err != nil {
			t.Skip()
		}
		g := inst.Topo
		opts := spf.Options{}
		if knockout != 0 {
			// Knock links out without re-enforcing invariants: the
			// active subgraph may be disconnected, which is the point.
			rng := rand.New(rand.NewSource(int64(knockout)))
			active := topo.AllOn(g)
			for l := range active.Link {
				if rng.Intn(4) == 0 {
					active.Link[l] = false
				}
			}
			opts.Active = active
		}
		eps := inst.Endpoints
		if len(eps) < 2 {
			t.Skip()
		}
		o := eps[int(oi)%len(eps)]
		d := eps[int(di)%len(eps)]
		if o == d {
			t.Skip()
		}
		lrng := rand.New(rand.NewSource(seed ^ int64(knockout)))
		diffLoadKernel(t, g, opts.Active, randomAvoid(g, lrng), nil,
			append(anyPairs(g, lrng, 8), [2]topo.NodeID{o, d}), lrng)
		kk := 1 + int(k%6)
		ref := spf.KShortest(g, o, d, kk, opts)
		refP, refOK := spf.ShortestPath(g, o, d, opts)
		for _, eng := range []spf.Engine{spf.EngineALT, spf.EngineBidirectional} {
			sub := opts
			sub.Engine = eng
			ws := spf.NewWorkspace()
			gotP, gotOK := ws.ShortestPath(g, o, d, sub)
			if gotOK != refOK {
				t.Fatalf("engine %v %v→%v: verdict %v vs reference %v", eng, o, d, gotOK, refOK)
			}
			if refOK && !samePaths([]topo.Path{refP}, []topo.Path{gotP}) {
				t.Fatalf("engine %v %v→%v: path diverged\nref %v\ngot %v", eng, o, d, refP.Arcs, gotP.Arcs)
			}
			got := ws.KShortest(g, o, d, kk, sub)
			if !samePaths(ref, got) {
				t.Fatalf("engine %v %v→%v k=%d: K-shortest diverged\nref %v\ngot %v",
					eng, o, d, kk, pathArcs(ref), pathArcs(got))
			}
		}
	})
}
