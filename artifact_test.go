package response_test

// Artifact-format tests: deterministic byte-identical round trips,
// refusal of every malformed-input class, and the headline guarantee —
// a loaded plan drives the online controller and the simulator exactly
// as the freshly computed one does.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"response"
	"response/internal/topogen"
	"response/simulate"
	"response/topology"
)

func examplePlan(t testing.TB) (*topology.Example, *response.Plan) {
	t.Helper()
	ex := topology.NewExample(topology.ExampleOpts{})
	plan, err := response.NewPlanner().Plan(context.Background(), ex.Topology)
	if err != nil {
		t.Fatal(err)
	}
	return ex, plan
}

func marshalPlan(t testing.TB, p *response.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestArtifactRoundTrip: WriteTo → ReadPlanFrom → WriteTo is
// byte-identical, and the loaded plan carries the same fingerprint,
// variant and tables.
func TestArtifactRoundTrip(t *testing.T) {
	ex, plan := examplePlan(t)
	first := marshalPlan(t, plan)

	loaded, err := response.ReadPlanFrom(bytes.NewReader(first), ex.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != plan.Fingerprint() {
		t.Fatalf("fingerprint drift: %016x -> %016x", plan.Fingerprint(), loaded.Fingerprint())
	}
	if loaded.Variant() != plan.Variant() {
		t.Errorf("variant drift: %q -> %q", plan.Variant(), loaded.Variant())
	}
	if loaded.TunnelCount() != plan.TunnelCount() {
		t.Errorf("tunnel drift: %d -> %d", plan.TunnelCount(), loaded.TunnelCount())
	}
	if !loaded.AlwaysOnSet().Equal(plan.AlwaysOnSet()) {
		t.Error("always-on set drift after round trip")
	}
	second := marshalPlan(t, loaded)
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not byte-identical: %d vs %d bytes", len(first), len(second))
	}
}

// TestArtifactGeantRoundTrip repeats the byte-equality check on the
// full GÉANT plan — the table set the fingerprint test pins.
func TestArtifactGeantRoundTrip(t *testing.T) {
	g := topology.NewGeant()
	plan, err := response.NewPlanner().Plan(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	first := marshalPlan(t, plan)
	loaded, err := response.ReadPlanFrom(bytes.NewReader(first), g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, marshalPlan(t, loaded)) {
		t.Fatal("GÉANT round trip not byte-identical")
	}
}

// TestArtifactGeneratedRoundTrip repeats the byte-equality and
// wrong-topology checks on a generated instance: artifacts must be as
// canonical on synthetic networks as on the built-in ones, and an
// artifact computed for one seed must refuse to install on another.
func TestArtifactGeneratedRoundTrip(t *testing.T) {
	gen := func(seed int64) (*response.Topology, []response.NodeID) {
		inst, err := topogen.Generate(topogen.Config{
			Family: topogen.FamilyWaxman, Size: 12, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return inst.Topo, inst.Endpoints
	}
	tp, eps := gen(11)
	plan, err := response.NewPlanner(
		response.WithEndpoints(eps), response.WithRestarts(0),
	).Plan(context.Background(), tp)
	if err != nil {
		t.Fatal(err)
	}
	first := marshalPlan(t, plan)
	loaded, err := response.ReadPlanFrom(bytes.NewReader(first), tp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, marshalPlan(t, loaded)) {
		t.Fatal("generated round trip not byte-identical")
	}
	other, _ := gen(12)
	if _, err := response.ReadPlanFrom(bytes.NewReader(first), other); !errors.Is(err, response.ErrTopologyMismatch) {
		t.Fatalf("cross-seed install: err = %v, want ErrTopologyMismatch", err)
	}
}

// TestReadPlanFromErrors walks every refusal class of the reader. None
// may panic; each must surface the right sentinel.
func TestReadPlanFromErrors(t *testing.T) {
	ex, plan := examplePlan(t)
	valid := marshalPlan(t, plan)
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, response.ErrBadArtifact},
		{"short header", valid[:20], response.ErrBadArtifact},
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' }), response.ErrBadArtifact},
		{"version skew", mutate(func(b []byte) { b[9] = 99 }), response.ErrVersionSkew},
		{"reserved bytes", mutate(func(b []byte) { b[10] = 1 }), response.ErrBadArtifact},
		{"truncated payload", valid[:len(valid)-10], response.ErrBadArtifact},
		{"oversize length", mutate(func(b []byte) {
			binary.BigEndian.PutUint64(b[32:40], 1<<40)
		}), response.ErrBadArtifact},
		{"payload corruption", mutate(func(b []byte) { b[len(b)-2] ^= 0xff }), response.ErrBadArtifact},
		{"crc corruption", mutate(func(b []byte) { b[28] ^= 0xff }), response.ErrBadArtifact},
		{"tables fingerprint corruption", mutate(func(b []byte) { b[20] ^= 0xff }), response.ErrBadArtifact},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p, err := response.ReadPlanFrom(bytes.NewReader(tc.data), ex.Topology)
			if p != nil || err == nil {
				t.Fatalf("accepted malformed artifact (plan=%v err=%v)", p, err)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("wrong topology", func(t *testing.T) {
		_, err := response.ReadPlanFrom(bytes.NewReader(valid), topology.NewGeant())
		if !errors.Is(err, response.ErrTopologyMismatch) {
			t.Fatalf("err = %v, want ErrTopologyMismatch", err)
		}
	})
}

// clickTranscript runs the Figure 7 failover scenario with the plan's
// installed paths and returns a full transcript of sampled path rates,
// power and controller counters. The simulator is deterministic, so two
// identical plans must produce identical transcripts.
func clickTranscript(t *testing.T, ex *topology.Example, plan *response.Plan) string {
	t.Helper()
	pinned := topology.AllOff(ex.Topology)
	psA, ok := plan.PathSet(ex.A, ex.K)
	if !ok {
		t.Fatal("no path set A->K")
	}
	psC, ok := plan.PathSet(ex.C, ex.K)
	if !ok {
		t.Fatal("no path set C->K")
	}
	pinned.ActivatePath(ex.Topology, psA.AlwaysOn)
	pinned.ActivatePath(ex.Topology, psC.AlwaysOn)

	s := simulate.New(ex.Topology, simulate.Opts{
		WakeUpDelay:      0.010,
		SleepAfterIdle:   0.050,
		FailureDetect:    0.050,
		FailurePropagate: 0.050,
		Model:            response.Cisco12000{},
		PinnedOn:         pinned,
	})
	ctrl := simulate.NewController(s, simulate.ControllerOpts{Threshold: 0.9, Gamma: 0.5})
	fa, err := s.AddFlow(ex.A, ex.K, 2.5*topology.Mbps, psA.Levels())
	if err != nil {
		t.Fatal(err)
	}
	fc, err := s.AddFlow(ex.C, ex.K, 2.5*topology.Mbps, psC.Levels())
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Manage(fa)
	ctrl.Manage(fc)
	s.Schedule(1.0, ctrl.Start)
	// Fail the always-on path's first link mid-run to exercise failover.
	failed := ex.Topology.Arc(psA.AlwaysOn.Arcs[0]).Link
	s.Schedule(3.0, func() { s.FailLink(failed) })

	var out bytes.Buffer
	s.SampleEvery(0.25, 5.0, func(now float64) {
		fmt.Fprintf(&out, "%.2f %v %v %v %v %.3f\n",
			now, fa.PathRate(0), fa.PathRate(1), fc.PathRate(0), fc.PathRate(1), s.PowerPct())
	})
	s.Run(5.0)
	fmt.Fprintf(&out, "decisions=%d shifts=%d wakes=%d rates=%v/%v\n",
		ctrl.Decisions, ctrl.Shifts, ctrl.Wakes, fa.Rate(), fc.Rate())
	return out.String()
}

// TestLoadedPlanDrivesSimIdentically is the artifact's behavioural
// guarantee: a plan reloaded from its artifact drives the REsPoNseTE
// controller and the simulator exactly as the freshly computed plan.
func TestLoadedPlanDrivesSimIdentically(t *testing.T) {
	ex, plan := examplePlan(t)
	loaded, err := response.ReadPlanFrom(bytes.NewReader(marshalPlan(t, plan)), ex.Topology)
	if err != nil {
		t.Fatal(err)
	}
	fresh := clickTranscript(t, ex, plan)
	replay := clickTranscript(t, ex, loaded)
	if fresh != replay {
		t.Fatalf("transcripts diverge:\n--- fresh ---\n%s--- loaded ---\n%s", fresh, replay)
	}
	if len(fresh) == 0 {
		t.Fatal("empty transcript")
	}
}
