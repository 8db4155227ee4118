package core

import (
	"response/internal/mcf"
	"response/internal/topo"
)

// WarmStart carries the per-stage seeds of an incremental plan: the
// element sets a previous plan's stages settled on, used to warm-start
// the corresponding subset searches of the next plan (§4.5 deployment:
// plans are recomputed on deviation, and consecutive plans differ
// little). Build one from a previous plan with Tables.WarmStart.
type WarmStart struct {
	// AlwaysOn seeds the always-on minimum-power search.
	AlwaysOn *topo.ActiveSet
	// OnDemand seeds the on-demand rounds, one entry per round; rounds
	// beyond the slice run cold.
	OnDemand []*topo.ActiveSet
}

// stage converts one stage's seed into the mcf option: round -1 is the
// always-on stage. A nil receiver or a stage with no seed returns nil
// (cold).
func (w *WarmStart) stage(round int) *mcf.WarmStart {
	if w == nil {
		return nil
	}
	var a *topo.ActiveSet
	switch {
	case round < 0:
		a = w.AlwaysOn
	case round < len(w.OnDemand):
		a = w.OnDemand[round]
	}
	if a == nil {
		return nil
	}
	return &mcf.WarmStart{Active: a}
}

// WarmStart derives the per-stage warm seeds from these tables: the
// always-on element set, and per on-demand round the union of that
// round's path elements with the always-on set (on-demand searches pin
// the always-on elements, so their seed must contain them).
func (tb *Tables) WarmStart() *WarmStart {
	w := &WarmStart{AlwaysOn: tb.AlwaysOnSet.Clone()}
	rounds := 0
	for _, ps := range tb.Pairs {
		if len(ps.OnDemand) > rounds {
			rounds = len(ps.OnDemand)
		}
	}
	for r := 0; r < rounds; r++ {
		a := topo.AllOff(tb.Topo)
		for _, ps := range tb.Pairs {
			if r < len(ps.OnDemand) {
				a.ActivatePath(tb.Topo, ps.OnDemand[r])
			}
		}
		w.OnDemand = append(w.OnDemand, a.Union(tb.AlwaysOnSet))
	}
	return w
}
