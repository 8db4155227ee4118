// Package lp is a small, self-contained linear-programming toolkit: a
// two-phase dense primal simplex solver plus branch-and-bound for
// integer (binary) variables.
//
// It substitutes for CPLEX (paper §2.2.2): the energy-aware routing
// formulation of §2.2.1 is a mixed-integer program, and the paper's
// point is precisely that exact solving is slow. This solver handles the
// exact formulation at Figure 3 scale (used in tests to cross-check the
// heuristics in internal/mcf) and LP relaxations for lower bounds.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// VarID indexes a decision variable within a Problem.
type VarID int

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // Σ a_i x_i <= b
	GE            // Σ a_i x_i >= b
	EQ            // Σ a_i x_i == b
)

// Term is one coefficient of a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

// Constraint is a linear constraint over the problem's variables.
type Constraint struct {
	Terms []Term
	Rel   Rel
	RHS   float64
	Name  string
}

type variable struct {
	name    string
	lo, hi  float64 // hi may be +Inf
	obj     float64
	integer bool
}

// Problem is a minimization program: min c'x subject to linear
// constraints and variable bounds, with optional integrality marks
// consumed by the branch-and-bound driver.
type Problem struct {
	vars []variable
	cons []Constraint
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar declares a variable with bounds [lo, hi] (hi may be
// math.Inf(1)) and objective coefficient obj; it returns the VarID.
func (p *Problem) AddVar(name string, lo, hi, obj float64) VarID {
	p.vars = append(p.vars, variable{name: name, lo: lo, hi: hi, obj: obj})
	return VarID(len(p.vars) - 1)
}

// SetInteger marks an existing variable as integer-constrained.
func (p *Problem) SetInteger(v VarID) { p.vars[v].integer = true }

// AddConstraint appends a constraint built from terms.
func (p *Problem) AddConstraint(name string, terms []Term, rel Rel, rhs float64) {
	p.cons = append(p.cons, Constraint{Terms: terms, Rel: rel, RHS: rhs, Name: name})
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Solution holds a solve result.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // indexed by VarID
}

// Value returns the solution value of v.
func (s Solution) Value(v VarID) float64 { return s.X[v] }

// ErrBadProblem flags structurally invalid input (e.g. lo > hi).
var ErrBadProblem = errors.New("lp: invalid problem")

// validate checks bound sanity.
func (p *Problem) validate() error {
	for i, v := range p.vars {
		if v.lo > v.hi {
			return fmt.Errorf("%w: var %d (%s) has lo %g > hi %g", ErrBadProblem, i, v.name, v.lo, v.hi)
		}
		if math.IsInf(v.lo, -1) {
			return fmt.Errorf("%w: var %d (%s) has unbounded-below domain (unsupported)", ErrBadProblem, i, v.name)
		}
	}
	return nil
}

// Feasible reports whether x satisfies every constraint and bound of p
// within tol. Used by tests as an independent solution certifier.
func (p *Problem) Feasible(x []float64, tol float64) bool {
	if len(x) != len(p.vars) {
		return false
	}
	for i, v := range p.vars {
		if x[i] < v.lo-tol || x[i] > v.hi+tol {
			return false
		}
	}
	for _, c := range p.cons {
		var s float64
		for _, t := range c.Terms {
			s += t.Coef * x[t.Var]
		}
		switch c.Rel {
		case LE:
			if s > c.RHS+tol {
				return false
			}
		case GE:
			if s < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(s-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// ObjectiveValue evaluates c'x.
func (p *Problem) ObjectiveValue(x []float64) float64 {
	var s float64
	for i, v := range p.vars {
		s += v.obj * x[i]
	}
	return s
}
