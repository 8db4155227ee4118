package verify_test

// The generated-corpus harness: every invariant and every differential
// oracle, run over a corpus of topogen instances spanning all five
// families. This is the module's property-based correctness story —
// the planner is no longer only pinned on three fixed topologies, it
// must hold its invariants on any network the generator can produce.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"response"
	"response/internal/spf"
	"response/internal/topo"
	"response/internal/topogen"
	"response/internal/traffic"
	"response/internal/verify"
)

// corpusSpec enumerates the (family, size, seed) instances of the
// default corpus: 28 instances across the five families, sized so the
// whole harness stays well under the 60-second budget.
type corpusSpec struct {
	family topogen.Family
	sizes  []int
	seeds  []int64
}

func corpus() []corpusSpec {
	return []corpusSpec{
		{topogen.FamilyFatTree, []int{4, 6}, []int64{1, 2}},
		{topogen.FamilyWaxman, []int{12, 20, 28}, []int64{1, 2}},
		{topogen.FamilyRing, []int{8, 14, 20}, []int64{1, 2}},
		{topogen.FamilyTorus, []int{3, 4, 5}, []int64{1, 2}},
		{topogen.FamilyISP, []int{3, 4, 5}, []int64{1, 2}},
	}
}

// planInstance plans a generated instance through the public facade
// with the deterministic orderings only (the corpus measures
// invariants, not solution quality, and 3 orderings keep 28 plans
// fast).
func planInstance(t *testing.T, inst *topogen.Instance, opts ...response.Option) *response.Plan {
	t.Helper()
	base := []response.Option{
		response.WithEndpoints(inst.Endpoints),
		response.WithRestarts(0),
		response.WithSeed(inst.Config.Seed),
	}
	plan, err := response.NewPlanner(base...).Plan(context.Background(), inst.Topo, opts...)
	if err != nil {
		t.Fatalf("%s: plan: %v", inst.Topo.Name, err)
	}
	return plan
}

// TestGeneratedCorpusInvariants plans every corpus instance and runs
// the full invariant checker plus the artifact round trip on it.
func TestGeneratedCorpusInvariants(t *testing.T) {
	n := 0
	for _, spec := range corpus() {
		for _, size := range spec.sizes {
			for _, seed := range spec.seeds {
				cfg := topogen.Config{Family: spec.family, Size: size, Seed: seed}
				n++
				t.Run(fmt.Sprintf("%s-%d-s%d", spec.family, size, seed), func(t *testing.T) {
					t.Parallel()
					inst, err := topogen.Generate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					plan := planInstance(t, inst)
					opts := verify.Opts{TM: inst.Shape, NetScale: inst.MaxScale}
					rep := verify.CheckTables(inst.Topo, plan.Tables(), opts)
					if err := rep.Err(); err != nil {
						t.Error(err)
					}

					// Artifact round trip: serialize, reload against the
					// generated topology, and re-check the loaded tables.
					var buf bytes.Buffer
					if _, err := plan.WriteTo(&buf); err != nil {
						t.Fatalf("write artifact: %v", err)
					}
					loaded, err := response.ReadPlanFrom(bytes.NewReader(buf.Bytes()), inst.Topo)
					if err != nil {
						t.Fatalf("read artifact: %v", err)
					}
					if loaded.Fingerprint() != plan.Fingerprint() {
						t.Errorf("artifact round trip changed fingerprint: %016x vs %016x",
							loaded.Fingerprint(), plan.Fingerprint())
					}
					if err := verify.CheckTables(inst.Topo, loaded.Tables(), opts).Err(); err != nil {
						t.Errorf("loaded tables: %v", err)
					}
				})
			}
		}
	}
	if n < 24 {
		t.Fatalf("corpus has %d instances, want >= 24", n)
	}
}

// TestGeneratedCorpusDiffGreedy runs the incremental-vs-FullReroute
// planning oracle on the small corpus instances, in both the
// capacity-slack (ε) and capacity-binding (matched TM) regimes.
func TestGeneratedCorpusDiffGreedy(t *testing.T) {
	for _, cfg := range []topogen.Config{
		{Family: topogen.FamilyFatTree, Size: 4, Seed: 1},
		{Family: topogen.FamilyWaxman, Size: 12, Seed: 1},
		{Family: topogen.FamilyWaxman, Size: 12, Seed: 2},
		{Family: topogen.FamilyRing, Size: 8, Seed: 1},
		{Family: topogen.FamilyTorus, Size: 3, Seed: 1},
		{Family: topogen.FamilyISP, Size: 3, Seed: 1},
		{Family: topogen.FamilyISP, Size: 3, Seed: 2},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-%d-s%d", cfg.Family, cfg.Size, cfg.Seed), func(t *testing.T) {
			t.Parallel()
			inst, err := topogen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			eps := traffic.Uniform(inst.Endpoints, 1).Demands()
			if rep := verify.DiffGreedy(inst.Topo, eps, nil, cfg.Seed); !rep.Ok() {
				t.Errorf("epsilon demands: %v", rep.Err())
			}
			if tight := inst.TM.Demands(); len(tight) > 0 {
				if rep := verify.DiffGreedy(inst.Topo, tight, nil, cfg.Seed); !rep.Ok() {
					t.Errorf("matched demands: %v", rep.Err())
				}
			}
		})
	}
}

// TestGeneratedCorpusDiffWarmStart runs the warm-start differential
// oracle over the full corpus: every instance is planned cold and then
// warm-started from its own cold plan, and the warm plan must be
// fingerprint-identical — or power-equal within the documented
// tolerance with a byte-identical always-on stage, reported explicitly
// — with zero invariant violations. This is the end-to-end proof that
// incremental replans cannot drift. Each instance is then replanned
// warm for a drifted demand and that plan, too, must be violation-free.
func TestGeneratedCorpusDiffWarmStart(t *testing.T) {
	identical, powerEqual := 0, 0
	var mu sync.Mutex
	t.Run("instances", func(t *testing.T) {
		for _, spec := range corpus() {
			for _, size := range spec.sizes {
				for _, seed := range spec.seeds {
					cfg := topogen.Config{Family: spec.family, Size: size, Seed: seed}
					t.Run(fmt.Sprintf("%s-%d-s%d", spec.family, size, seed), func(t *testing.T) {
						t.Parallel()
						inst, err := topogen.Generate(cfg)
						if err != nil {
							t.Fatal(err)
						}
						cold := planInstance(t, inst)
						warm := planInstance(t, inst, response.WithWarmStart(cold))
						rep, same := verify.DiffWarmStart(inst.Topo, cold, warm, 0)
						if !rep.Ok() {
							t.Error(rep.Err())
						}
						mu.Lock()
						if same {
							identical++
						} else {
							powerEqual++
							t.Logf("%s: warm plan power-equal within tolerance but not fingerprint-identical", inst.Topo.Name)
						}
						mu.Unlock()

						// The warm plan must satisfy every table invariant,
						// not merely match the cold plan's power.
						opts := verify.Opts{TM: inst.Shape, NetScale: inst.MaxScale}
						if err := verify.CheckTables(inst.Topo, warm.Tables(), opts).Err(); err != nil {
							t.Error(err)
						}

						// The lifecycle's real replan: demand drifted to the
						// matched matrix, seeded from the installed plan. The
						// differential oracle does not apply (inputs changed),
						// the table invariants do.
						drifted := planInstance(t, inst, response.WithLowMatrix(inst.TM), response.WithWarmStart(cold))
						if err := verify.CheckTables(inst.Topo, drifted.Tables(), opts).Err(); err != nil {
							t.Errorf("drifted-demand warm replan: %v", err)
						}
					})
				}
			}
		}
	})
	t.Logf("warm-start corpus: %d fingerprint-identical, %d power-equal within tolerance",
		identical, powerEqual)
}

// TestGeneratedCorpusDiffAllocators runs the incremental-vs-global
// allocator oracle over every corpus instance: the simulator loaded
// with the matched matrix over the planned tables must settle
// identically in both modes.
func TestGeneratedCorpusDiffAllocators(t *testing.T) {
	for _, cfg := range []topogen.Config{
		{Family: topogen.FamilyFatTree, Size: 4, Seed: 1},
		{Family: topogen.FamilyWaxman, Size: 20, Seed: 1},
		{Family: topogen.FamilyWaxman, Size: 20, Seed: 2},
		{Family: topogen.FamilyRing, Size: 14, Seed: 1},
		{Family: topogen.FamilyTorus, Size: 4, Seed: 1},
		{Family: topogen.FamilyISP, Size: 4, Seed: 1},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-%d-s%d", cfg.Family, cfg.Size, cfg.Seed), func(t *testing.T) {
			t.Parallel()
			inst, err := topogen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan := planInstance(t, inst)
			if rep := verify.DiffAllocators(inst.Topo, plan.Tables(), inst.TM); !rep.Ok() {
				t.Error(rep.Err())
			}
		})
	}
}

// TestGeneratedCorpusDiffSwap runs the post-swap-vs-fresh-controller
// oracle on one instance per seeded family: hot-swapping from the
// ε-planned tables to a demand-aware replan must leave the runtime in
// the state a cold restart on the new plan would reach.
func TestGeneratedCorpusDiffSwap(t *testing.T) {
	for _, cfg := range []topogen.Config{
		{Family: topogen.FamilyWaxman, Size: 16, Seed: 3},
		{Family: topogen.FamilyRing, Size: 10, Seed: 3},
		{Family: topogen.FamilyISP, Size: 4, Seed: 3},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-%d-s%d", cfg.Family, cfg.Size, cfg.Seed), func(t *testing.T) {
			t.Parallel()
			inst, err := topogen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			planA := planInstance(t, inst)
			planB := planInstance(t, inst, response.WithLowMatrix(inst.TM))
			if rep := verify.DiffSwap(planA, planB, inst.TM); !rep.Ok() {
				t.Error(rep.Err())
			}
		})
	}
}

// TestGeneratedDelayBound plans geometrically embedded instances as
// REsPoNse-lat and checks the delay-bound invariant end to end.
func TestGeneratedDelayBound(t *testing.T) {
	for _, cfg := range []topogen.Config{
		{Family: topogen.FamilyWaxman, Size: 16, Seed: 1},
		{Family: topogen.FamilyISP, Size: 4, Seed: 1},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-%d-s%d", cfg.Family, cfg.Size, cfg.Seed), func(t *testing.T) {
			t.Parallel()
			inst, err := topogen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan := planInstance(t, inst, response.WithDelayBound(0.25))
			rep := verify.CheckTables(inst.Topo, plan.Tables(),
				verify.Opts{TM: inst.Shape, NetScale: inst.MaxScale, Beta: 0.25})
			if err := rep.Err(); err != nil {
				t.Error(err)
			}
			if plan.Variant() != "REsPoNse-lat" {
				t.Errorf("variant = %q, want REsPoNse-lat", plan.Variant())
			}
		})
	}
}

// TestCheckTablesDetectsCorruption sanity-checks the checker itself:
// deliberately corrupted tables must be flagged, not waved through.
func TestCheckTablesDetectsCorruption(t *testing.T) {
	inst, err := topogen.Generate(topogen.Config{Family: topogen.FamilyRing, Size: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := planInstance(t, inst)
	tb := plan.Tables()

	// Break flow conservation: truncate one always-on path.
	k := tb.PairKeys()[0]
	saved := tb.Pairs[k].AlwaysOn
	if saved.Len() < 1 {
		t.Fatal("first pair has an empty always-on path")
	}
	tb.Pairs[k].AlwaysOn.Arcs = saved.Arcs[:saved.Len()-1]
	rep := verify.CheckTables(inst.Topo, tb, verify.Opts{})
	found := false
	for _, v := range rep.Violations {
		if v.Invariant == "flow-conservation" {
			found = true
		}
	}
	if !found && inst.Topo.Node(saved.Destination(inst.Topo)).ID == k[1] {
		t.Errorf("checker missed a truncated path: %v", rep.Violations)
	}
	tb.Pairs[k].AlwaysOn = saved

	// Loop a path back through its origin: net flows stay balanced, so
	// only the visit count can catch it.
	a01, ok1 := inst.Topo.ArcBetween(0, 1)
	a10, ok2 := inst.Topo.ArcBetween(1, 0)
	a07, ok3 := inst.Topo.ArcBetween(0, 7)
	if ok1 && ok2 && ok3 {
		kl := [2]topo.NodeID{0, 7}
		pl, have := tb.Pairs[kl]
		if !have {
			t.Fatalf("ring plan lacks pair %v", kl)
		}
		savedLoop := pl.AlwaysOn
		pl.AlwaysOn = topo.Path{Arcs: []topo.ArcID{a01, a10, a07}}
		rep := verify.CheckTables(inst.Topo, tb, verify.Opts{})
		found = false
		for _, v := range rep.Violations {
			if v.Invariant == "flow-conservation" {
				found = true
			}
		}
		if !found {
			t.Errorf("checker missed an origin-revisiting path: %v", rep.Violations)
		}
		pl.AlwaysOn = savedLoop
	}

	// Break the always-on set: power off a link the first path uses.
	l := inst.Topo.Arc(saved.Arcs[0]).Link
	tb.AlwaysOnSet.Link[l] = false
	rep = verify.CheckTables(inst.Topo, tb, verify.Opts{})
	found = false
	for _, v := range rep.Violations {
		if v.Invariant == "always-on-connectivity" {
			found = true
		}
	}
	if !found {
		t.Errorf("checker missed a broken always-on set: %v", rep.Violations)
	}
	tb.AlwaysOnSet.Link[l] = true
}

// TestPlanDisconnectedReturnsInfeasible is the bugfix-sweep
// regression: planning a disconnected generated topology must fail
// cleanly with ErrInfeasible, never panic and never emit tables.
func TestPlanDisconnectedReturnsInfeasible(t *testing.T) {
	inst, err := topogen.Generate(topogen.Config{Family: topogen.FamilyWaxman, Size: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the topology minus every link of node 0: node 0 stays an
	// endpoint but is unreachable.
	cut := rebuildWithoutNode0Links(inst)
	_, err = response.NewPlanner(
		response.WithEndpoints(inst.Endpoints),
		response.WithRestarts(0),
	).Plan(context.Background(), cut)
	if !errors.Is(err, response.ErrInfeasible) {
		t.Fatalf("plan on disconnected topology: err = %v, want ErrInfeasible", err)
	}
}

// rebuildWithoutNode0Links copies a generated topology minus every
// link incident to node 0, leaving node 0 as an unreachable endpoint.
func rebuildWithoutNode0Links(inst *topogen.Instance) *topo.Topology {
	src := inst.Topo
	cut := topo.New(src.Name + "-cut")
	for _, n := range src.Nodes() {
		cut.AddNodeAt(n.Name, n.Kind, n.KmEast, n.KmNorth)
	}
	for _, l := range src.Links() {
		if l.A == 0 || l.B == 0 {
			continue
		}
		cut.AddAsymLink(l.A, l.B, src.Arc(l.AB).Capacity, src.Arc(l.BA).Capacity,
			src.Arc(l.AB).Latency)
	}
	return cut
}

// TestGeneratedCorpusDiffPathEngine is the path-engine proof harness:
// on every corpus instance, the per-query differential oracle must
// find the ALT and bidirectional engines byte-identical to the
// reference engine (same verdicts, distances, arcs and candidate
// emission order under every option shape), and a whole plan computed
// through each goal-directed engine must have a fingerprint identical
// to the reference plan's. Together with the pinned fingerprint tests
// this proves the fast engines cannot change any output, only speed.
func TestGeneratedCorpusDiffPathEngine(t *testing.T) {
	engines := []struct {
		eng  spf.Engine
		name string
	}{
		{spf.EngineALT, response.PathEngineALT},
		{spf.EngineBidirectional, response.PathEngineBidirectional},
	}
	n := 0
	for _, spec := range corpus() {
		for _, size := range spec.sizes {
			for _, seed := range spec.seeds {
				cfg := topogen.Config{Family: spec.family, Size: size, Seed: seed}
				n++
				t.Run(fmt.Sprintf("%s-%d-s%d", spec.family, size, seed), func(t *testing.T) {
					t.Parallel()
					inst, err := topogen.Generate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range engines {
						rep := verify.DiffPathEngine(inst.Topo, inst.Endpoints, e.eng, 4, 48, seed)
						if err := rep.Err(); err != nil {
							t.Errorf("query oracle (%s): %v", e.name, err)
						}
					}
					ref := planInstance(t, inst)
					for _, e := range engines {
						got := planInstance(t, inst, response.WithPathEngine(e.name))
						if got.Fingerprint() != ref.Fingerprint() {
							t.Errorf("engine %s changed the plan fingerprint: %016x vs %016x",
								e.name, got.Fingerprint(), ref.Fingerprint())
						}
					}
				})
			}
		}
	}
	if n < 28 {
		t.Fatalf("corpus has %d instances, want >= 28", n)
	}
}
