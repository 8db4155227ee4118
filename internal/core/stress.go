package core

import (
	"sort"

	"response/internal/mcf"
	"response/internal/topo"
)

// StressFactor computes the paper's per-link stress factor (§4.2):
//
//	sf(l) = (number of flows routed via l) / C(l)
//
// over a routing assignment — the probabilistic proxy for "how likely
// is this link to become a bottleneck". Flow counts sum both arc
// directions of the physical link. Capacity is expressed in Gb/s so the
// factors are O(1).
func StressFactor(t *topo.Topology, r *mcf.Routing) []float64 {
	paths := make([]topo.Path, 0, len(r.Paths))
	for _, p := range r.Paths {
		paths = append(paths, p)
	}
	return StressFactorPaths(t, paths)
}

// StressFactorPaths is StressFactor over an explicit path collection
// (e.g. always-on plus previously computed on-demand assignments).
func StressFactorPaths(t *topo.Topology, paths []topo.Path) []float64 {
	counts := make([]float64, t.NumLinks())
	for _, p := range paths {
		for _, aid := range p.Arcs {
			counts[t.Arc(aid).Link]++
		}
	}
	sf := make([]float64, t.NumLinks())
	for _, l := range t.Links() {
		capGbps := (t.Arc(l.AB).Capacity + t.Arc(l.BA).Capacity) / 2 / 1e9
		if capGbps > 0 {
			sf[l.ID] = counts[l.ID] / capGbps
		}
	}
	return sf
}

// ExcludableStressed returns up to ⌈fraction·|links|⌉ links of highest
// stress factor (ties broken by link ID for determinism; the paper's
// sensitivity analysis lands on fraction = 0.2), with a connectivity
// guard: links are taken in stress order but a link is skipped when
// excluding it (on top of already-excluded ones) would disconnect the
// non-host topology, and a link that carries nothing is never
// excluded. Degree-1 spurs — which score high on flows/capacity but
// are the only way to reach their node — therefore stay usable, which
// is what any operator deploying the §4.2 exclusion would require.
func ExcludableStressed(t *topo.Topology, sf []float64, fraction float64,
	already map[topo.LinkID]bool) map[topo.LinkID]bool {

	if fraction <= 0 {
		return map[topo.LinkID]bool{}
	}
	if fraction > 1 {
		fraction = 1
	}
	budget := int(float64(len(sf))*fraction + 0.9999)
	out := make(map[topo.LinkID]bool, budget)
	trial := topo.AllOn(t)
	for id := range already {
		trial.Link[id] = false
	}
	for _, id := range rankByStress(sf) {
		if len(out) >= budget {
			break
		}
		lid := topo.LinkID(id)
		if sf[id] <= 0 || already[lid] {
			continue
		}
		trial.Link[lid] = false
		if t.ConnectedUnder(trial) {
			out[lid] = true
		} else {
			trial.Link[lid] = true // keep: it is a bridge
		}
	}
	return out
}

// rankByStress returns link indices sorted by descending stress.
func rankByStress(sf []float64) []int {
	ids := make([]int, len(sf))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if sf[ids[a]] != sf[ids[b]] {
			return sf[ids[a]] > sf[ids[b]]
		}
		return ids[a] < ids[b]
	})
	return ids
}
