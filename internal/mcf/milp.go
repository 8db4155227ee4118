package mcf

import (
	"fmt"
	"math"

	"response/internal/lp"
	"response/internal/power"
	"response/internal/topo"
	"response/internal/traffic"
)

// MILP is the exact formulation of §2.2.1 built over the lp package:
//
//	min Σ_i X_i·Pc(i) + Σ_l Y_l·(Pl(A)+Pl(B)+2·Pa)
//	s.t. flow conservation per demand,
//	     Σ_od d_od·f_od,a ≤ C_a·Y_link(a)   (constraint 2)
//	     Y_l ≤ X_A, Y_l ≤ X_B               (constraint 1)
//	     X_i ≤ Σ_{l ∋ i} Y_l                (constraint 3)
//
// with X, Y and f binary. It is tractable only at Figure 3 scale and
// exists to certify the heuristics (see DESIGN.md §2).
type MILP struct {
	Problem *lp.Problem
	X       map[topo.NodeID]lp.VarID
	Y       map[topo.LinkID]lp.VarID
	F       map[flowKey]lp.VarID
	topo    *topo.Topology
	demands []traffic.Demand
}

type flowKey struct {
	o, d topo.NodeID
	arc  topo.ArcID
}

// MILPOpts tunes the exact model.
type MILPOpts struct {
	// MaxUtil caps per-arc utilization (default 1.0).
	MaxUtil float64
	// Relax builds the LP relaxation (no integrality marks), giving a
	// power lower bound.
	Relax bool
}

// BuildMILP assembles the exact model for the given demands.
func BuildMILP(t *topo.Topology, demands []traffic.Demand, m power.Model, opts MILPOpts) *MILP {
	if opts.MaxUtil == 0 {
		opts.MaxUtil = 1.0
	}
	p := lp.NewProblem()
	mi := &MILP{
		Problem: p,
		X:       make(map[topo.NodeID]lp.VarID),
		Y:       make(map[topo.LinkID]lp.VarID),
		F:       make(map[flowKey]lp.VarID),
		topo:    t,
		demands: demands,
	}
	mkBin := func(name string, obj float64) lp.VarID {
		v := p.AddVar(name, 0, 1, obj)
		if !opts.Relax {
			p.SetInteger(v)
		}
		return v
	}
	for _, n := range t.Nodes() {
		if n.Kind == topo.KindHost {
			continue
		}
		mi.X[n.ID] = mkBin(fmt.Sprintf("X_%s", n.Name), m.ChassisWatts(n))
	}
	for _, l := range t.Links() {
		mi.Y[l.ID] = mkBin(fmt.Sprintf("Y_%d", l.ID), power.LinkWatts(t, m, l))
	}
	// Flow variables (binary single-path routing).
	for _, d := range demands {
		if d.O == d.D || d.Rate == 0 {
			continue
		}
		for _, a := range t.Arcs() {
			v := p.AddVar(fmt.Sprintf("f_%d_%d_a%d", d.O, d.D, a.ID), 0, 1, 0)
			if !opts.Relax {
				p.SetInteger(v)
			}
			mi.F[flowKey{d.O, d.D, a.ID}] = v
		}
	}
	// Flow conservation.
	for _, d := range demands {
		if d.O == d.D || d.Rate == 0 {
			continue
		}
		for _, n := range t.Nodes() {
			var terms []lp.Term
			for _, aid := range t.Out(n.ID) {
				terms = append(terms, lp.Term{Var: mi.F[flowKey{d.O, d.D, aid}], Coef: 1})
			}
			for _, aid := range t.In(n.ID) {
				terms = append(terms, lp.Term{Var: mi.F[flowKey{d.O, d.D, aid}], Coef: -1})
			}
			rhs := 0.0
			switch n.ID {
			case d.O:
				rhs = 1
			case d.D:
				rhs = -1
			}
			p.AddConstraint(fmt.Sprintf("fc_%d_%d_n%d", d.O, d.D, n.ID), terms, lp.EQ, rhs)
		}
	}
	// Capacity with link activation (constraint 2).
	for _, a := range t.Arcs() {
		var terms []lp.Term
		for _, d := range demands {
			if d.O == d.D || d.Rate == 0 {
				continue
			}
			terms = append(terms, lp.Term{Var: mi.F[flowKey{d.O, d.D, a.ID}], Coef: d.Rate})
		}
		terms = append(terms, lp.Term{Var: mi.Y[a.Link], Coef: -a.Capacity * opts.MaxUtil})
		p.AddConstraint(fmt.Sprintf("cap_a%d", a.ID), terms, lp.LE, 0)
	}
	// Constraint 1: link implies both routers on.
	for _, l := range t.Links() {
		for _, end := range []topo.NodeID{l.A, l.B} {
			if t.Node(end).Kind == topo.KindHost {
				continue
			}
			p.AddConstraint(fmt.Sprintf("lr_%d_%d", l.ID, end),
				[]lp.Term{{Var: mi.Y[l.ID], Coef: 1}, {Var: mi.X[end], Coef: -1}}, lp.LE, 0)
		}
	}
	// Constraint 3: router off when all its links are off.
	for _, n := range t.Nodes() {
		if n.Kind == topo.KindHost {
			continue
		}
		terms := []lp.Term{{Var: mi.X[n.ID], Coef: 1}}
		for _, aid := range t.Out(n.ID) {
			terms = append(terms, lp.Term{Var: mi.Y[t.Arc(aid).Link], Coef: -1})
		}
		p.AddConstraint(fmt.Sprintf("ro_%d", n.ID), terms, lp.LE, 0)
	}
	return mi
}

// SolveExact solves the MILP to (proven or node-limited) optimality and
// decodes the active set and routing.
func (mi *MILP) SolveExact(opts lp.MIPOpts) (*topo.ActiveSet, *Routing, float64, error) {
	res, err := lp.SolveMIP(mi.Problem, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	if res.Status != lp.Optimal {
		return nil, nil, 0, fmt.Errorf("mcf: exact solve %v", res.Status)
	}
	active := topo.AllOff(mi.topo)
	for nid, v := range mi.X {
		active.Router[nid] = res.X[v] > 0.5
	}
	for lid, v := range mi.Y {
		active.Link[lid] = res.X[v] > 0.5
	}
	r := NewRouting(mi.topo)
	for _, d := range mi.demands {
		if d.O == d.D || d.Rate == 0 {
			continue
		}
		p, err := mi.decodePath(res.Solution, d)
		if err != nil {
			return nil, nil, 0, err
		}
		r.Assign(d.O, d.D, p, d.Rate)
	}
	return active, r, res.Objective, nil
}

// LowerBound solves the LP relaxation and returns its objective: a
// valid lower bound on the minimum network power.
func LowerBound(t *topo.Topology, demands []traffic.Demand, m power.Model, opts MILPOpts) (float64, error) {
	opts.Relax = true
	mi := BuildMILP(t, demands, m, opts)
	sol, err := lp.Solve(mi.Problem)
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("mcf: relaxation %v", sol.Status)
	}
	return sol.Objective, nil
}

// decodePath walks the f variables of one demand from O to D.
func (mi *MILP) decodePath(sol lp.Solution, d traffic.Demand) (topo.Path, error) {
	var arcs []topo.ArcID
	cur := d.O
	visited := map[topo.NodeID]bool{cur: true}
	for cur != d.D {
		next := topo.ArcID(-1)
		for _, aid := range mi.topo.Out(cur) {
			if sol.X[mi.F[flowKey{d.O, d.D, aid}]] > 0.5 {
				next = aid
				break
			}
		}
		if next < 0 {
			return topo.Path{}, fmt.Errorf("mcf: decode %d->%d stuck at %d", d.O, d.D, cur)
		}
		arcs = append(arcs, next)
		cur = mi.topo.Arc(next).To
		if visited[cur] {
			return topo.Path{}, fmt.Errorf("mcf: decode %d->%d loops at %d", d.O, d.D, cur)
		}
		visited[cur] = true
		if len(arcs) > mi.topo.NumArcs() {
			return topo.Path{}, fmt.Errorf("mcf: decode %d->%d runaway", d.O, d.D)
		}
	}
	return topo.Path{Arcs: arcs}, nil
}

// WattsOf evaluates the model objective for an explicit active set —
// handy for comparing heuristic and exact answers in tests.
func WattsOf(t *topo.Topology, m power.Model, a *topo.ActiveSet) float64 {
	return power.NetworkWatts(t, m, a)
}

// Gap returns (heuristic-exact)/exact, guarding against zero.
func Gap(heuristic, exact float64) float64 {
	if exact == 0 {
		return 0
	}
	return (heuristic - exact) / math.Abs(exact)
}
