package response_test

// The exports census: an exported identifier under internal/ is API
// surface inside the module, and surface nobody calls is code nobody
// needs. TestExportsCensus keeps the count of uncalled exports at zero
// (DESIGN.md "Settings census").

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// testOracles lists the exported declarations under internal/ that no
// non-test file references: each is the oracle of a named test, and the
// value names it.
var testOracles = map[string]string{
	"response/internal/lifecycle.Manager.History": "TestHistoryReadsWithFig1bMachinery reads the live loop's Figure 1b recomputation rate through it",
	"response/internal/mcf.MILP.SolveExact":       "TestGreedyMatchesExactMILP: the exact optimum the greedy is held to (ROADMAP item 5 wires it in or removes it)",
	"response/internal/mcf.Gap":                   "TestGreedyMatchesExactMILP: the greedy's distance from the exact optimum",
	"response/internal/mcf.LowerBound":            "TestLowerBoundIsBound: the LP-relaxation bound under every greedy plan",
	"response/internal/spf.Landmarks.Subset":      "TestLandmarkSubsetMonotonicity: the metamorphic oracle of the ALT bound (goes with the engines, ROADMAP item 1)",
	"response/internal/verify.CheckSRLGs":         "TestCheckSRLGsCleanOnGenerated, TestCheckSRLGsDetectsMalformed and the chaos soak vet every SRLG model with it",
	"response/internal/verify.DiffAllocators":     "TestGeneratedCorpusDiffAllocators: incremental allocator against sim's FullAllocate reference",
	"response/internal/verify.DiffGreedy":         "TestGeneratedCorpusDiffGreedy: delta rerouting against mcf's FullReroute reference",
	"response/internal/verify.DiffPathEngine":     "TestGeneratedCorpusDiffPathEngine: goal-directed engines against the reference Dijkstra",
	"response/internal/verify.DiffSwap":           "TestGeneratedCorpusDiffSwap: a hot-swapped runtime against one started fresh on the new plan",
}

// interfaceMethods are the standard-library interface methods an
// exported method may exist only to satisfy; TestExportsCensus adds the
// module's own interfaces.
var interfaceMethods = []string{
	"Error", "Unwrap", "String", "Write", "Read", "WriteTo", "ReadFrom", "Close",
	"Len", "Less", "Swap", "Push", "Pop", "ServeHTTP", "Set",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
}

// exportDecl is one exported declaration under internal/: a top-level
// func, type, const or var (key "pkg.Name"), or a method (key
// "pkg.Type.Name").
type exportDecl struct {
	key    string
	use    string // the used-set entry that pays for it
	name   string
	method bool
}

// selfKey is the used-set entry a function would record by naming
// itself: recursion is not a caller.
func selfKey(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv != nil {
		return "." + fn.Name.Name
	}
	return pkg + "." + fn.Name.Name
}

// typeName returns the base type name of a receiver type expression.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// exportDecls lists cf's exported declarations and marks every
// declaring identifier, receiver types included, in decl: a declaration
// is never a use of itself.
func exportDecls(cf censusFile, decl map[*ast.Ident]bool) []exportDecl {
	var out []exportDecl
	add := func(id *ast.Ident, key, use string, method bool) {
		decl[id] = true
		if id.IsExported() {
			out = append(out, exportDecl{key: key, use: use, name: id.Name, method: method})
		}
	}
	for _, d := range cf.ast.Decls {
		switch x := d.(type) {
		case *ast.FuncDecl:
			if x.Recv == nil {
				add(x.Name, cf.pkg+"."+x.Name.Name, selfKey(cf.pkg, x), false)
				continue
			}
			ast.Inspect(x.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					decl[id] = true
				}
				return true
			})
			add(x.Name, cf.pkg+"."+typeName(x.Recv.List[0].Type)+"."+x.Name.Name, selfKey(cf.pkg, x), true)
		case *ast.GenDecl:
			for _, spec := range x.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, cf.pkg+"."+s.Name.Name, cf.pkg+"."+s.Name.Name, false)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, cf.pkg+"."+id.Name, cf.pkg+"."+id.Name, false)
					}
				}
			}
		}
	}
	return out
}

// TestExportsCensus requires every exported top-level func, type, const
// and var under internal/, and every exported method there, to be
// referenced by name from some non-test file (bench/ included) other
// than its own declaration — anywhere, its own package included:
// unexporting a name its package uses would rename code without
// removing any. A method counts as referenced by any selector of its
// name, and one named like an interface method is exempt (it may be
// reached only through the interface). Anything else is listed in
// testOracles with the test it is the oracle of, or deleted.
func TestExportsCensus(t *testing.T) {
	files := parseModule(t, ".")
	decl := map[*ast.Ident]bool{}
	var decls []exportDecl
	for _, cf := range files {
		ds := exportDecls(cf, decl)
		if strings.HasPrefix(cf.pkg, "response/internal/") {
			decls = append(decls, ds...)
		}
	}
	exempt := map[string]bool{}
	for _, name := range interfaceMethods {
		exempt[name] = true
	}
	// used holds "pkg.Name" for a package-level reference (bare in its
	// own package, qualified elsewhere) and ".Name" for any selector.
	used := map[string]bool{}
	for _, cf := range files {
		for _, d := range cf.ast.Decls {
			self := ""
			if fn, ok := d.(*ast.FuncDecl); ok {
				self = selfKey(cf.pkg, fn)
			}
			mark := func(key string) {
				if key != self {
					used[key] = true
				}
			}
			sel := map[*ast.Ident]bool{}
			ast.Inspect(d, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.InterfaceType:
					for _, m := range x.Methods.List {
						for _, id := range m.Names {
							exempt[id.Name] = true
						}
					}
				case *ast.SelectorExpr:
					sel[x.Sel] = true
					mark("." + x.Sel.Name)
					if id, ok := x.X.(*ast.Ident); ok {
						if ip, ok := cf.imports[id.Name]; ok {
							mark(ip + "." + x.Sel.Name)
							return false
						}
					}
				case *ast.Ident:
					if !decl[x] && !sel[x] {
						mark(cf.pkg + "." + x.Name)
					}
				}
				return true
			})
		}
	}
	seen := map[string]bool{}
	var uncalled []string
	for _, d := range decls {
		seen[d.key] = true
		ok := used[d.use] || (d.method && exempt[d.name])
		_, listed := testOracles[d.key]
		switch {
		case ok && listed:
			t.Errorf("%s is referenced by a non-test file but still listed in testOracles: drop the entry", d.key)
		case !ok && !listed:
			uncalled = append(uncalled, d.key)
		}
	}
	for key := range testOracles {
		if !seen[key] {
			t.Errorf("testOracles lists %s, which no longer exists: drop the entry", key)
		}
	}
	sort.Strings(uncalled)
	for _, key := range uncalled {
		t.Errorf("%s: no non-test file references it — delete it, or list it in testOracles with the test it is the oracle of", key)
	}
}
