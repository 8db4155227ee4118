package lp

import (
	"math"
	"testing"
	"testing/quick"
)

// addBinary declares a {0,1} integer variable.
func addBinary(p *Problem, name string, obj float64) VarID {
	id := p.AddVar(name, 0, 1, obj)
	p.SetInteger(id)
	return id
}

func solveOK(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !p.Feasible(sol.X, 1e-6) {
		t.Fatalf("solution infeasible: %v", sol.X)
	}
	return sol
}

func TestSimpleLP(t *testing.T) {
	// min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0.
	// Optimum at (2,2): objective -6.
	p := NewProblem()
	x := p.AddVar("x", 0, 3, -1)
	y := p.AddVar("y", 0, 2, -2)
	p.AddConstraint("sum", []Term{{x, 1}, {y, 1}}, LE, 4)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective+6) > 1e-6 {
		t.Errorf("objective = %v, want -6", sol.Objective)
	}
	if math.Abs(sol.Value(x)-2) > 1e-6 || math.Abs(sol.Value(y)-2) > 1e-6 {
		t.Errorf("x,y = %v,%v", sol.Value(x), sol.Value(y))
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x+y s.t. x + y = 5, x <= 2 → x=2? No: both cost 1, any split
	// gives 5. Check objective only.
	p := NewProblem()
	x := p.AddVar("x", 0, 2, 1)
	y := p.AddVar("y", 0, math.Inf(1), 1)
	p.AddConstraint("eq", []Term{{x, 1}, {y, 1}}, EQ, 5)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-5) > 1e-6 {
		t.Errorf("objective = %v, want 5", sol.Objective)
	}
}

func TestGEConstraint(t *testing.T) {
	// min 3x + 2y s.t. x + y >= 4, x >= 1. Optimum (1,3) = 9.
	p := NewProblem()
	x := p.AddVar("x", 1, math.Inf(1), 3)
	y := p.AddVar("y", 0, math.Inf(1), 2)
	p.AddConstraint("cover", []Term{{x, 1}, {y, 1}}, GE, 4)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-9) > 1e-6 {
		t.Errorf("objective = %v, want 9", sol.Objective)
	}
}

func TestLowerBoundShift(t *testing.T) {
	// Variables with non-zero lower bounds.
	// min x + y s.t. x + y >= 7, x in [2,10], y in [3,10] → 7.
	p := NewProblem()
	x := p.AddVar("x", 2, 10, 1)
	y := p.AddVar("y", 3, 10, 1)
	p.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, 7)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-7) > 1e-6 {
		t.Errorf("objective = %v, want 7", sol.Objective)
	}
	if sol.Value(x) < 2-1e-9 || sol.Value(y) < 3-1e-9 {
		t.Error("bounds violated")
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 0, 1, 1)
	p.AddConstraint("c", []Term{{x, 1}}, GE, 2)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 0, math.Inf(1), -1)
	p.AddConstraint("c", []Term{{x, 1}}, GE, 0)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestBadBounds(t *testing.T) {
	p := NewProblem()
	p.AddVar("x", 5, 1, 0)
	if _, err := Solve(p); err == nil {
		t.Error("lo > hi should error")
	}
	q := NewProblem()
	q.AddVar("y", math.Inf(-1), 0, 1)
	if _, err := Solve(q); err == nil {
		t.Error("unbounded-below should error")
	}
}

func TestDegenerateDiet(t *testing.T) {
	// Classic diet-style LP with redundant constraints.
	p := NewProblem()
	x := p.AddVar("x", 0, math.Inf(1), 2)
	y := p.AddVar("y", 0, math.Inf(1), 3)
	p.AddConstraint("p1", []Term{{x, 1}, {y, 2}}, GE, 4)
	p.AddConstraint("p2", []Term{{x, 2}, {y, 1}}, GE, 4)
	p.AddConstraint("redundant", []Term{{x, 3}, {y, 3}}, GE, 6)
	sol := solveOK(t, p)
	// Optimum at x=y=4/3: 2*(4/3)+3*(4/3) = 20/3.
	if math.Abs(sol.Objective-20.0/3) > 1e-6 {
		t.Errorf("objective = %v, want %v", sol.Objective, 20.0/3)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -1 with min x+y → (0,1).
	p := NewProblem()
	x := p.AddVar("x", 0, 10, 1)
	y := p.AddVar("y", 0, 10, 1)
	p.AddConstraint("c", []Term{{x, 1}, {y, -1}}, LE, -1)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-1) > 1e-6 {
		t.Errorf("objective = %v, want 1", sol.Objective)
	}
}

func TestMIPKnapsack(t *testing.T) {
	// max 10a+13b+7c st 3a+4b+2c <= 6 (binary) → min negated.
	// Brute force best: a+c (weight 5, value 17); b+c (6, 20) ✓.
	p := NewProblem()
	a := addBinary(p, "a", -10)
	b := addBinary(p, "b", -13)
	c := addBinary(p, "c", -7)
	p.AddConstraint("w", []Term{{a, 3}, {b, 4}, {c, 2}}, LE, 6)
	res, err := SolveMIP(p, MIPOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective+20) > 1e-6 {
		t.Errorf("objective = %v, want -20", res.Objective)
	}
	if res.X[a] > 0.5 || res.X[b] < 0.5 || res.X[c] < 0.5 {
		t.Errorf("selection = %v", res.X)
	}
	if !res.Proven {
		t.Error("tiny knapsack should be proven optimal")
	}
}

func TestMIPIntegerRounding(t *testing.T) {
	// LP relaxation fractional: min -x st 2x <= 3, x integer in [0,5] → x=1.
	p := NewProblem()
	x := p.AddVar("x", 0, 5, -1)
	p.SetInteger(x)
	p.AddConstraint("c", []Term{{x, 2}}, LE, 3)
	res, err := SolveMIP(p, MIPOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[x]-1) > 1e-6 {
		t.Errorf("x = %v, want 1", res.X[x])
	}
}

func TestMIPInfeasible(t *testing.T) {
	p := NewProblem()
	x := addBinary(p, "x", 1)
	y := addBinary(p, "y", 1)
	p.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, 3)
	res, err := SolveMIP(p, MIPOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

// Property: MIP objective >= LP relaxation objective (minimization).
func TestMIPDominatesRelaxationProperty(t *testing.T) {
	f := func(seed uint16) bool {
		p, q := randomBinaryPacking(int64(seed))
		lpSol, err := Solve(q)
		if err != nil || lpSol.Status != Optimal {
			return true // skip infeasible randoms
		}
		mip, err := SolveMIP(p, MIPOpts{MaxNodes: 5000})
		if err != nil || mip.Status != Optimal {
			return true
		}
		return mip.Objective >= lpSol.Objective-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: simplex solutions on random covering LPs are feasible and
// no worse than a reference greedy feasible point.
func TestSimplexBeatsGreedyProperty(t *testing.T) {
	f := func(seed uint16) bool {
		p, _ := randomCovering(int64(seed))
		sol, err := Solve(p)
		if err != nil || sol.Status != Optimal {
			return sol.Status == Infeasible // random coverings are feasible by design
		}
		if !p.Feasible(sol.X, 1e-6) {
			return false
		}
		// All-ones is always feasible for these instances.
		ones := make([]float64, len(p.vars))
		for i := range ones {
			ones[i] = 1
		}
		if !p.Feasible(ones, 1e-6) {
			return true
		}
		return sol.Objective <= p.ObjectiveValue(ones)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomBinaryPacking builds paired MIP/LP-relaxed packing problems.
func randomBinaryPacking(seed int64) (mip, relaxed *Problem) {
	rng := seed
	next := func(n int64) int64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := rng % n
		if v < 0 {
			v += n
		}
		return v
	}
	nVars := int(2 + next(4))
	nCons := int(1 + next(3))
	mip = NewProblem()
	relaxed = NewProblem()
	costs := make([]float64, nVars)
	for i := range costs {
		costs[i] = -float64(1 + next(9))
		addBinary(mip, "x", costs[i])
		relaxed.AddVar("x", 0, 1, costs[i])
	}
	for c := 0; c < nCons; c++ {
		var terms []Term
		var sum float64
		for i := 0; i < nVars; i++ {
			w := float64(1 + next(5))
			terms = append(terms, Term{Var: VarID(i), Coef: w})
			sum += w
		}
		rhs := sum * (0.3 + float64(next(5))/10)
		mip.AddConstraint("w", terms, LE, rhs)
		relaxed.AddConstraint("w", terms, LE, rhs)
	}
	return mip, relaxed
}

// randomCovering builds feasible covering LPs (all-ones feasible).
func randomCovering(seed int64) (*Problem, int) {
	rng := seed
	next := func(n int64) int64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := rng % n
		if v < 0 {
			v += n
		}
		return v
	}
	nVars := int(2 + next(4))
	nCons := int(1 + next(4))
	p := NewProblem()
	for i := 0; i < nVars; i++ {
		p.AddVar("x", 0, 1, float64(1+next(7)))
	}
	for c := 0; c < nCons; c++ {
		var terms []Term
		var sum float64
		for i := 0; i < nVars; i++ {
			w := float64(next(4))
			if w == 0 {
				continue
			}
			terms = append(terms, Term{Var: VarID(i), Coef: w})
			sum += w
		}
		if len(terms) == 0 {
			continue
		}
		p.AddConstraint("cover", terms, GE, sum*0.5)
	}
	return p, nVars
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}
