package spf

import "response/internal/topo"

// TargetBoundForTest exposes the ALT heuristic to the external test
// package for the admissibility and monotonicity property tests.
func TargetBoundForTest(t *topo.Topology, lm *Landmarks, v, d topo.NodeID) float64 {
	return targetBound(t, lm, v, d)
}

// ReverseTreeForTest runs the reversed-graph search the backward
// landmark tables are built with; read its labels through Dist.
func (ws *Workspace) ReverseTreeForTest(t *topo.Topology, src topo.NodeID, opts Options) {
	ws.run(t, src, opts, -1, true)
}
