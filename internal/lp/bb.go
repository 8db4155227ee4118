package lp

import (
	"math"
	"sort"
)

// MIPOpts bounds the branch-and-bound search.
type MIPOpts struct {
	// MaxNodes caps explored nodes (default 100000).
	MaxNodes int
}

// intTol is the integrality tolerance: a relaxation value closer than
// this to an integer counts as integral. The search always runs to a
// proven optimum (or MaxNodes) — there is no early-stop gap.
const intTol = 1e-6

func (o *MIPOpts) defaults() {
	if o.MaxNodes == 0 {
		o.MaxNodes = 100000
	}
}

// MIPResult reports a branch-and-bound outcome.
type MIPResult struct {
	Solution
	// Bound is the best proven lower bound on the optimum.
	Bound float64
	// Nodes is the number of LP relaxations solved.
	Nodes int
	// Proven is true when the search closed the tree (optimality
	// proven rather than node-limited).
	Proven bool
}

type bbNode struct {
	lo, hi []float64 // bound overrides per variable (NaN = inherit)
	bound  float64   // parent LP bound (priority)
}

// SolveMIP runs best-first branch-and-bound over the variables marked
// integer in p.
func SolveMIP(p *Problem, opts MIPOpts) (MIPResult, error) {
	opts.defaults()
	if err := p.validate(); err != nil {
		return MIPResult{Solution: Solution{Status: Infeasible}}, err
	}
	var intVars []VarID
	for i, v := range p.vars {
		if v.integer {
			intVars = append(intVars, VarID(i))
		}
	}
	// Work on a copy whose bounds we mutate per node.
	work := &Problem{vars: append([]variable(nil), p.vars...), cons: p.cons}
	baseLo := make([]float64, len(p.vars))
	baseHi := make([]float64, len(p.vars))
	for i, v := range p.vars {
		baseLo[i], baseHi[i] = v.lo, v.hi
	}

	res := MIPResult{Solution: Solution{Status: Infeasible, Objective: math.Inf(1)}}
	res.Bound = math.Inf(-1)

	root := bbNode{lo: cloneNaN(len(p.vars)), hi: cloneNaN(len(p.vars)), bound: math.Inf(-1)}
	open := []bbNode{root}
	incumbent := math.Inf(1)

	for len(open) > 0 && res.Nodes < opts.MaxNodes {
		// Best-first: pop the node with the smallest parent bound.
		sort.Slice(open, func(i, j int) bool { return open[i].bound < open[j].bound })
		node := open[0]
		open = open[1:]
		if node.bound >= incumbent-1e-12 {
			continue // pruned by incumbent
		}
		// Apply node bounds.
		for i := range work.vars {
			work.vars[i].lo = pick(node.lo[i], baseLo[i])
			work.vars[i].hi = pick(node.hi[i], baseHi[i])
			if work.vars[i].lo > work.vars[i].hi {
				work.vars[i].lo = work.vars[i].hi // will come out infeasible or fixed
			}
		}
		res.Nodes++
		sol, err := Solve(work)
		if err != nil {
			return res, err
		}
		if sol.Status != Optimal {
			continue // infeasible or unbounded branch
		}
		if sol.Objective >= incumbent-1e-12 {
			continue
		}
		// Find most fractional integer variable.
		branch := VarID(-1)
		worst := intTol
		for _, v := range intVars {
			f := sol.X[v] - math.Floor(sol.X[v])
			frac := math.Min(f, 1-f)
			if frac > worst {
				worst = frac
				branch = v
			}
		}
		if branch < 0 {
			// Integer-feasible: new incumbent.
			incumbent = sol.Objective
			res.Solution = sol
			res.Status = Optimal
			continue
		}
		floorV := math.Floor(sol.X[branch])
		down := bbNode{lo: append([]float64(nil), node.lo...), hi: append([]float64(nil), node.hi...), bound: sol.Objective}
		down.hi[branch] = floorV
		up := bbNode{lo: append([]float64(nil), node.lo...), hi: append([]float64(nil), node.hi...), bound: sol.Objective}
		up.lo[branch] = floorV + 1
		open = append(open, down, up)
	}
	res.Proven = len(open) == 0 || allPruned(open, incumbent)
	if math.IsInf(incumbent, 1) {
		res.Bound = math.Inf(-1)
	} else {
		res.Bound = incumbent
		if !res.Proven {
			lowest := incumbent
			for _, n := range open {
				if n.bound < lowest {
					lowest = n.bound
				}
			}
			res.Bound = lowest
		}
	}
	return res, nil
}

func allPruned(open []bbNode, incumbent float64) bool {
	for _, n := range open {
		if n.bound < incumbent-1e-12 {
			return false
		}
	}
	return true
}

func cloneNaN(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

func pick(override, base float64) float64 {
	if math.IsNaN(override) {
		return base
	}
	return override
}
