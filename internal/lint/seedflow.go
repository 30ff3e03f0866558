package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

var seedflowAnalyzer = &Analyzer{
	Name: "seedflow",
	Doc: "interprocedural taint check that every seed reaching an RNG " +
		"constructor originates from the run configuration, " +
		"never from a literal or the wall clock — even through helper " +
		"layers",
	NeedsTypes: true,
	Run:        runSeedflow,
}

// seedflowConstructorPkgs are the packages whose constructors consume a
// seed; overridden by Rule.Sinks in fixtures.
var seedflowConstructorPkgs = []string{"aquatope/internal/stats", "math/rand", "math/rand/v2"}

// seedflowConstructors maps constructor function names to the index of
// their seed parameter.
var seedflowConstructors = map[string]int{
	"NewRNG":    0,
	"NewSource": 0,
	"NewPCG":    0,
}

func runSeedflow(prog *Program, pkg *Package, file *File, rule Rule, report Reporter) {
	catalog := rule.Sinks
	if len(catalog) == 0 {
		catalog = seedflowConstructorPkgs
	}
	seedGroups := prog.seedFlowGroups(catalog)
	info := pkg.Info

	// Walk the file's call sites with their enclosing declared function,
	// so parameter references in seed expressions can be expanded through
	// the caller's locals.
	checkCall := func(owner *ProgFunc, call *ast.CallExpr) {
		// Direct constructor call: stats.NewRNG(seed).
		if idx, ok := constructorSeedArg(info, call, catalog); ok && idx < len(call.Args) {
			if reason := taintedSeed(prog, pkg, owner, call.Args[idx], 0, nil); reason != "" {
				report(call.Args[idx].Pos(), "%s seeds an RNG constructor; derive the seed from the run configuration instead", reason)
			}
			return
		}
		// Call into a function whose parameters flow into a constructor
		// seed. Each group is one seed expression's ingredient set: the
		// seed is tainted only when EVERY member receives a tainted
		// argument (a constant salt mixed with a clean config seed stays
		// clean, mirroring taintedSeed's binary-mix rule).
		name := calleeFullName(info, call)
		if name == "" {
			return
		}
		for _, g := range seedGroups[name] {
			reason := ""
			var at ast.Expr
			tainted := len(g) > 0
			for _, idx := range g {
				if idx >= len(call.Args) {
					tainted = false
					break
				}
				r := taintedSeed(prog, pkg, owner, call.Args[idx], 0, nil)
				if r == "" {
					tainted = false
					break
				}
				if reason == "" {
					reason, at = r, call.Args[idx]
				}
			}
			if tainted {
				report(at.Pos(), "%s flows into an RNG constructor through %s; derive the seed from the run configuration instead", reason, shortFunc(name))
				return
			}
		}
	}

	for _, d := range file.AST.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		var owner *ProgFunc
		if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
			owner = prog.Funcs[obj.FullName()]
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(owner, call)
			}
			return true
		})
	}
}

// constructorSeedArg reports whether call is an RNG constructor from the
// catalog and returns the seed argument index.
func constructorSeedArg(info *types.Info, call *ast.CallExpr, catalog []string) (int, bool) {
	var path, name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		path, name = calleePackage(info, fun)
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok && fn.Pkg() != nil {
			path, name = fn.Pkg().Path(), fn.Name()
		}
	}
	if path == "" || !pathInCatalog(path, catalog) {
		return 0, false
	}
	idx, ok := seedflowConstructors[name]
	return idx, ok
}

// seedFlowGroups computes, for every declared function, the groups of
// parameter indices whose values are mixed into an RNG constructor's
// seed: the fixpoint of "these params together form a seed" over the
// call graph. Group semantics follow taintedSeed's mixing rule — a seed
// expression is tainted only when every ingredient is — so a helper like
// ablationTrace(s, salt) building Seed: s.Seed + salt produces no group
// at all once any ingredient can never be tainted, and a group {0, 1}
// fires at a call site only when both arguments are tainted. Memoized
// per sink configuration on the Program.
func (p *Program) seedFlowGroups(catalog []string) map[string][][]int {
	key := strings.Join(catalog, ",")
	if cached, ok := p.seedCache[key]; ok {
		return cached
	}
	groups := make(map[string][][]int)
	add := func(fn string, g []int) bool {
		if len(g) == 0 {
			return false // fully tainted in place: reported at that site, nothing to propagate
		}
		k := intsKey(g)
		for _, old := range groups[fn] {
			if intsKey(old) == k {
				return false
			}
		}
		groups[fn] = append(groups[fn], g)
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, name := range p.funcNames {
			fn := p.Funcs[name]
			params := paramObjects(fn)
			for _, site := range fn.calls {
				// Direct constructor call: the seed argument's own mix.
				if idx, ok := constructorSeedArg(fn.Pkg.Info, site.Call, catalog); ok && idx < len(site.Call.Args) {
					if need, dead := mixClassify(p, fn, params, site.Call.Args[idx], 0); !dead {
						if add(name, sortedIntKeys(need)) {
							changed = true
						}
					}
				}
				// Propagate the callee's groups through this site: the
				// caller's group is the union of the parameter mixes feeding
				// each member, and dies if any member can never be tainted.
				for _, g := range groups[site.Callee] {
					union := make(map[int]bool)
					dead := false
					for _, gi := range g {
						if gi >= len(site.Call.Args) {
							dead = true
							break
						}
						need, d := mixClassify(p, fn, params, site.Call.Args[gi], 0)
						if d {
							dead = true
							break
						}
						for i := range need {
							union[i] = true
						}
					}
					if !dead && add(name, sortedIntKeys(union)) {
						changed = true
					}
				}
			}
		}
	}
	p.seedCache[key] = groups
	return groups
}

func intsKey(g []int) string {
	s := ""
	for _, i := range g {
		s += "," + fmt.Sprint(i)
	}
	return s
}

// mixClassify decomposes a seed expression into the set of enclosing-
// function parameters that must ALL be tainted for the expression to be
// tainted. An empty set with dead == false means the expression is
// tainted in place (constants, wall-clock reads). dead == true means
// some ingredient can never be tainted — config-struct literals, channel
// or map reads, calls into foreign code — so no choice of arguments
// taints the seed and no group is produced.
func mixClassify(prog *Program, fn *ProgFunc, params map[types.Object]int, e ast.Expr, depth int) (map[int]bool, bool) {
	if depth > 6 {
		return nil, true
	}
	info := fn.Pkg.Info
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return nil, false // constant: tainted in place, requires nothing
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if obj == nil {
			return nil, true
		}
		if idx, ok := params[obj]; ok {
			return map[int]bool{idx: true}, false
		}
		if init := localInit(fn, obj); init != nil {
			return mixClassify(prog, fn, params, init, depth+1)
		}
		return nil, true
	case *ast.SelectorExpr:
		// A field read off a parameter (s.Seed): the parameter carries it.
		if id := rootIdent(x); id != nil {
			if idx, ok := params[info.ObjectOf(id)]; ok {
				return map[int]bool{idx: true}, false
			}
		}
		return nil, true
	case *ast.BinaryExpr:
		left, dead := mixClassify(prog, fn, params, x.X, depth+1)
		if dead {
			return nil, true
		}
		right, dead := mixClassify(prog, fn, params, x.Y, depth+1)
		if dead {
			return nil, true
		}
		for i := range right {
			if left == nil {
				left = make(map[int]bool)
			}
			left[i] = true
		}
		return left, false
	case *ast.UnaryExpr:
		return mixClassify(prog, fn, params, x.X, depth+1)
	case *ast.CallExpr:
		// Conversions: int64(x).
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return mixClassify(prog, fn, params, x.Args[0], depth+1)
		}
		if containsWallclockRead(info, x) {
			return nil, false // wall clock: tainted in place
		}
		if name := calleeFullName(info, x); name != "" {
			if callee := prog.Funcs[name]; callee != nil && alwaysReturnsTainted(prog, callee, depth+1) != "" {
				return nil, false // helper smuggling a tainted value out
			}
		}
		return nil, true
	}
	return nil, true
}

func sortedIntKeys(set map[int]bool) []int {
	idxs := make([]int, 0, len(set))
	for i := range set {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs
}

func paramObjects(fn *ProgFunc) map[types.Object]int {
	out := make(map[types.Object]int)
	idx := 0
	if fn.Decl.Type.Params == nil {
		return out
	}
	for _, field := range fn.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, name := range field.Names {
			if obj := fn.Pkg.Info.Defs[name]; obj != nil {
				out[obj] = idx
			}
			idx++
		}
	}
	return out
}

// localInit finds the single-definition initializer of a local variable
// inside fn (x := expr, var x = expr); nil for parameters, multi-value
// assignments and reassigned variables.
func localInit(fn *ProgFunc, obj types.Object) ast.Expr {
	if fn.Decl.Body == nil {
		return nil
	}
	var init ast.Expr
	writes := 0
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, l := range st.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || fn.Pkg.Info.ObjectOf(id) != obj {
					continue
				}
				writes++
				if len(st.Lhs) == len(st.Rhs) {
					init = st.Rhs[i]
				}
			}
		case *ast.ValueSpec:
			for i, id := range st.Names {
				if fn.Pkg.Info.ObjectOf(id) != obj {
					continue
				}
				writes++
				if i < len(st.Values) {
					init = st.Values[i]
				}
			}
		case *ast.IncDecStmt:
			if id, ok := st.X.(*ast.Ident); ok && fn.Pkg.Info.ObjectOf(id) == obj {
				writes++
			}
		}
		return true
	})
	if writes != 1 {
		return nil
	}
	return init
}

// taintedSeed classifies a seed expression, returning a non-empty reason
// when it is tainted: a compile-time constant, a wall-clock read, a
// single-assignment local bound to a tainted expression, or a call to a
// helper that always returns a tainted value. Clean sources — function
// parameters, config fields, channel/flag reads — return "".
func taintedSeed(prog *Program, pkg *Package, owner *ProgFunc, expr ast.Expr, depth int, seen map[types.Object]bool) string {
	if depth > 6 {
		return ""
	}
	if seen == nil {
		seen = make(map[types.Object]bool)
	}
	e := ast.Unparen(expr)
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
		return fmt.Sprintf("constant seed %s", tv.Value)
	}
	if containsWallclockRead(pkg.Info, e) {
		return "wall-clock-derived seed"
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := pkg.Info.ObjectOf(x)
		if obj == nil || seen[obj] {
			return ""
		}
		seen[obj] = true
		if owner != nil {
			if init := localInit(owner, obj); init != nil {
				return taintedSeed(prog, pkg, owner, init, depth+1, seen)
			}
		}
	case *ast.BinaryExpr:
		// A mix is tainted only when every operand is (cfg.Seed ^ 0x5eed
		// is clean; 42 ^ time-now is not).
		left := taintedSeed(prog, pkg, owner, x.X, depth+1, seen)
		if left == "" {
			return ""
		}
		right := taintedSeed(prog, pkg, owner, x.Y, depth+1, seen)
		if right == "" {
			return ""
		}
		return left
	case *ast.UnaryExpr:
		return taintedSeed(prog, pkg, owner, x.X, depth+1, seen)
	case *ast.CallExpr:
		// Conversions: int64(x).
		if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return taintedSeed(prog, pkg, owner, x.Args[0], depth+1, seen)
		}
		// A helper that always returns a tainted value smuggles the seed
		// through a layer: func defaultSeed() int64 { return 42 }.
		if name := calleeFullName(pkg.Info, x); name != "" {
			if callee := prog.Funcs[name]; callee != nil {
				if reason := alwaysReturnsTainted(prog, callee, depth+1); reason != "" {
					return fmt.Sprintf("%s (via %s)", reason, shortFunc(name))
				}
			}
		}
	}
	return ""
}

// alwaysReturnsTainted reports whether every return statement of fn
// yields a tainted first result.
func alwaysReturnsTainted(prog *Program, fn *ProgFunc, depth int) string {
	if depth > 6 || fn.Decl.Body == nil {
		return ""
	}
	reason := ""
	all := true
	found := false
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		found = true
		r := taintedSeed(prog, fn.Pkg, fn, ret.Results[0], depth, nil)
		if r == "" {
			all = false
		} else if reason == "" {
			reason = r
		}
		return true
	})
	if found && all {
		return reason
	}
	return ""
}

// containsWallclockRead reports whether the expression reads the wall
// clock (time.Now and friends) anywhere in its subtree.
func containsWallclockRead(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "time" && wallclockFuncs[obj.Name()] {
			found = true
		}
		return !found
	})
	return found
}

func shortFunc(fullName string) string {
	if i := strings.LastIndex(fullName, "/"); i >= 0 {
		return fullName[i+1:]
	}
	return fullName
}
