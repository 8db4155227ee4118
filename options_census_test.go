package response_test

// The settings census: an option field is a cost — a default, a doc
// paragraph and a branch — so every one has to be paid for by a caller
// that sets it. TestOptionsCensus keeps the count of unpaid fields at
// zero (DESIGN.md "Settings census").

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testsOnlyKnobs lists the option fields no production file assigns:
// knobs only tests turn. Each is the seam or the reference mode of the
// named test, which could not reach the behaviour through a default;
// the value names that test.
var testsOnlyKnobs = map[string]string{
	"response/internal/analysis.ReplayOpts.Optimal":     "TestReplayOptimalMode runs the multi-restart search against the greedy default",
	"response/internal/apps.WebOpts.BackgroundUtil":     "TestWebErrors saturates the path to force zero residual bandwidth",
	"response/internal/controld.Opts.PlanHook":          "TestJobCancelMidPlanFreesSlot and the other job tests cancel and fail plan jobs through it deterministically",
	"response/internal/lifecycle.Opts.DrainGrace":       "TestStageAndSwapRejectedWhileDraining stretches the drain to land a second staging mid-swap",
	"response/internal/lp.MIPOpts.MaxNodes":             "TestGreedyMatchesExactMILP and TestMIPDominatesRelaxationProperty bound their branch-and-bound budget",
	"response/internal/scenario.Config.ObliviousReplan": "TestChaosFingerprintMatchesFaultFree needs replans that never swap in its fault-free twin",
	"response/internal/scenario.Config.SRLGs":           "TestChaosSoakGeneratedFamilies passes a generated instance's group model; Run derives GÉANT's",
	"response/internal/topo.ExampleOpts.IncludeB":       "TestBuildersValidateAndConnect builds the full Figure 3 (the experiments run it without router B)",
	"response/internal/tracestore.Opts.MaxWindows":      "TestWindowEviction and FuzzIngestLine shrink the per-tenant window bound to reach it",
	"response/internal/verify.Opts.Model":               "TestNodePermutationIsomorphism checks the permuted plan under the model it planned with",
	"response/internal/verify.Opts.Beta":                "TestGeneratedDelayBound exercises the checker's delay-bound invariant on REsPoNse-lat plans",
}

// optionStruct reports whether a type name marks an options struct.
func optionStruct(name string) bool {
	return strings.HasSuffix(name, "Opts") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}

// censusFile is one parsed non-test file and the package it belongs to.
type censusFile struct {
	pkg     string            // import path of the file's package
	imports map[string]string // local name → import path
	ast     *ast.File
}

// censusAssigns records which option fields some production line sets.
type censusAssigns struct {
	// alias maps a re-exported type ("response/topology.FatTreeOpts") to the
	// type it names, so a literal of the facade type pays for the
	// internal struct's field.
	alias map[string]string
	// keyed are composite-literal keys of a resolved struct type:
	// "import/path.Type.Field".
	keyed map[string]bool
	// bySelector are x.Field = …, x.Field++ and &x.Field sites, which
	// go/parser cannot type: field name → the packages visible at the
	// site (its own and its imports).
	bySelector map[string]map[string]bool
}

// parseModule parses every non-test Go file under root (bench/, its own
// module on the same tree, included).
func parseModule(t *testing.T, root string) []censusFile {
	t.Helper()
	var files []censusFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		cf := censusFile{pkg: path.Join("response", filepath.ToSlash(rel)), imports: map[string]string{}, ast: f}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			cf.imports[name] = ip
		}
		files = append(files, cf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// typeKey resolves a composite literal's type expression to
// "import/path.Type" ("" when it is not a plain named type).
func (cf censusFile) typeKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return cf.pkg + "." + x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if ip, ok := cf.imports[id.Name]; ok {
				return ip + "." + x.Sel.Name
			}
		}
	case *ast.StarExpr:
		return cf.typeKey(x.X)
	}
	return ""
}

// literal records the keys of one composite literal; implied is the
// element type of an enclosing slice, array or map literal, which Go
// lets the inner literals elide.
func (a *censusAssigns) literal(cf censusFile, lit *ast.CompositeLit, implied string) {
	key := implied
	if lit.Type != nil {
		key = a.resolve(cf.typeKey(lit.Type))
	}
	elem := ""
	switch x := lit.Type.(type) {
	case *ast.ArrayType:
		elem = a.resolve(cf.typeKey(x.Elt))
	case *ast.MapType:
		elem = a.resolve(cf.typeKey(x.Value))
	}
	for _, el := range lit.Elts {
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok && key != "" {
				a.keyed[key+"."+id.Name] = true
			}
		}
		if inner, ok := val.(*ast.CompositeLit); ok && inner.Type == nil {
			a.literal(cf, inner, elem)
		}
	}
}

// resolve follows type aliases to the declared struct.
func (a *censusAssigns) resolve(key string) string {
	for target, ok := a.alias[key]; ok; target, ok = a.alias[key] {
		key = target
	}
	return key
}

// selString renders an identifier/selector chain ("o.Route.MaxUtil");
// anything else is "".
func selString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := selString(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
	}
	return ""
}

// byValueParam reports whether name is a parameter (or receiver) fn
// takes by value: writes to its fields are invisible to every caller.
func byValueParam(fn *ast.FuncDecl, name string) bool {
	lists := []*ast.FieldList{fn.Recv, fn.Type.Params}
	for _, fl := range lists {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			if _, ptr := f.Type.(*ast.StarExpr); ptr {
				continue
			}
			for _, id := range f.Names {
				if id.Name == name {
					return true
				}
			}
		}
	}
	return false
}

// selector records one untyped x.Field write site, unless it is a
// function defaulting its own input inline: a function-level
// `if … x.F … { x.F = … }` on a by-value parameter x (the top of
// NewFatTree, say). A test nested deeper — under a preset's case — or a
// fill through a pointer is a value some caller selected.
func (a *censusAssigns) selector(cf censusFile, e ast.Expr, enclosing []ast.Node) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if len(enclosing) > 2 {
		fn, isFn := enclosing[0].(*ast.FuncDecl)
		ifs, isIf := enclosing[2].(*ast.IfStmt)
		target := selString(sel)
		if base, _, _ := strings.Cut(target, "."); isFn && isIf && byValueParam(fn, base) {
			selfTest := false
			ast.Inspect(ifs.Cond, func(c ast.Node) bool {
				if ce, ok := c.(ast.Expr); ok && selString(ce) == target {
					selfTest = true
				}
				return !selfTest
			})
			if selfTest {
				return
			}
		}
	}
	vis := a.bySelector[sel.Sel.Name]
	if vis == nil {
		vis = map[string]bool{}
		a.bySelector[sel.Sel.Name] = vis
	}
	vis[cf.pkg] = true
	for _, ip := range cf.imports {
		vis[ip] = true
	}
}

// scan walks one file's declarations, skipping the bodies of defaults()
// methods: a field only its own defaults() writes has no caller.
func (a *censusAssigns) scan(cf censusFile) {
	for _, decl := range cf.ast.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "defaults" {
			continue
		}
		var stack []ast.Node
		ast.Inspect(decl, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			switch x := n.(type) {
			case *ast.CompositeLit:
				if x.Type != nil {
					a.literal(cf, x, "")
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					a.selector(cf, lhs, stack)
				}
			case *ast.IncDecStmt:
				a.selector(cf, x.X, stack)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					a.selector(cf, x.X, stack)
				}
			}
			stack = append(stack, n)
			return true
		})
	}
}

// TestOptionsCensus requires every exported field of every *Opts,
// *Config and *Options struct in the module (bench/ included) to be
// set by some non-test file other than the struct's own defaults(), to
// be wire input (a json tag), or to be listed in testsOnlyKnobs with
// the reason it stays. A field that fails is a knob nobody turns: make
// it an unexported constant next to its one use.
func TestOptionsCensus(t *testing.T) {
	files := parseModule(t, ".")
	assigns := &censusAssigns{alias: map[string]string{}, keyed: map[string]bool{}, bySelector: map[string]map[string]bool{}}
	for _, cf := range files {
		ast.Inspect(cf.ast, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
				assigns.alias[cf.pkg+"."+ts.Name.Name] = cf.typeKey(ts.Type)
			}
			return true
		})
	}
	for _, cf := range files {
		assigns.scan(cf)
	}
	seen := map[string]bool{}
	var unpaid []string
	for _, cf := range files {
		ast.Inspect(cf.ast, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ts.Name.IsExported() || !optionStruct(ts.Name.Name) {
				return true
			}
			for _, f := range st.Fields.List {
				names := f.Names
				if names == nil { // embedded: the field is named after its type
					key := cf.typeKey(f.Type)
					names = []*ast.Ident{ast.NewIdent(key[strings.LastIndex(key, ".")+1:])}
				}
				wire := false
				if f.Tag != nil {
					tag, _ := strconv.Unquote(f.Tag.Value)
					_, wire = reflect.StructTag(tag).Lookup("json")
				}
				for _, id := range names {
					if !ast.IsExported(id.Name) {
						continue
					}
					key := cf.pkg + "." + ts.Name.Name + "." + id.Name
					seen[key] = true
					paid := wire || assigns.keyed[key] || assigns.bySelector[id.Name][cf.pkg]
					_, listed := testsOnlyKnobs[key]
					switch {
					case paid && listed:
						t.Errorf("%s is set by production code (or is wire input) but still listed in testsOnlyKnobs: drop the entry", key)
					case !paid && !listed:
						unpaid = append(unpaid, key)
					}
				}
			}
			return true
		})
	}
	for key := range testsOnlyKnobs {
		if !seen[key] {
			t.Errorf("testsOnlyKnobs lists %s, which no longer exists: drop the entry", key)
		}
	}
	sort.Strings(unpaid)
	for _, key := range unpaid {
		t.Errorf("%s: no non-test file sets it — make it an unexported constant next to its one use, or list it in testsOnlyKnobs with the reason it stays", key)
	}
}
