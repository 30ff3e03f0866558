package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// Program is the whole loaded package set plus the whole-program indices
// the interprocedural analyzers (seedflow) share: a function index keyed
// by the fully qualified name of each declared function, and a reverse
// call index from callee to every resolved call site. Per-file syntactic
// analyzers ignore it.
//
// Functions are keyed by their types.Func FullName (e.g.
// "aquatope/internal/stats.NewRNG", "(*aquatope/internal/faas.Cluster).Invoke")
// rather than by object identity: each package is type-checked from
// source against export data for its dependencies, so the *types.Func a
// caller resolves and the *types.Func of the source declaration live in
// different type-checker universes. The fully qualified name is the
// stable bridge between them.
type Program struct {
	Pkgs []*Package
	// Funcs maps a function's FullName to its source declaration; only
	// functions declared with a body in a type-checked target package
	// appear.
	Funcs map[string]*ProgFunc
	// Callers maps a callee FullName to every call site that resolves to
	// it, in (package, file, position) order.
	Callers map[string][]*ProgCall

	funcNames []string // sorted keys of Funcs, for deterministic passes

	// seedCache memoizes seedflow's param-group fixpoint per sink config.
	seedCache map[string]map[string][][]int
}

// ProgFunc is one function declaration in the program.
type ProgFunc struct {
	FullName string
	Pkg      *Package
	File     *File
	Decl     *ast.FuncDecl
	Obj      *types.Func

	calls []*ProgCall // call sites lexically inside Decl
}

// ProgCall is one resolved call site.
type ProgCall struct {
	Pkg    *Package
	File   *File
	Call   *ast.CallExpr
	Callee string    // FullName of the resolved callee
	Caller *ProgFunc // enclosing declared function; nil in package-level initializers
}

// NewProgram indexes the loaded packages. Test files and packages without
// type information are skipped: the call graph only covers compiled code.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:      pkgs,
		Funcs:     make(map[string]*ProgFunc),
		Callers:   make(map[string][]*ProgCall),
		seedCache: make(map[string]map[string][][]int),
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			p.indexFile(pkg, file)
		}
	}
	for name := range p.Funcs {
		p.funcNames = append(p.funcNames, name)
	}
	sort.Strings(p.funcNames)
	return p
}

func (p *Program) indexFile(pkg *Package, file *File) {
	// Declarations first, so calls inside them can attach to their entry.
	decls := make(map[*ast.FuncDecl]*ProgFunc)
	for _, d := range file.AST.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		pf := &ProgFunc{FullName: obj.FullName(), Pkg: pkg, File: file, Decl: fd, Obj: obj}
		p.Funcs[pf.FullName] = pf
		decls[fd] = pf
	}
	var stack []*ProgFunc
	cur := func() *ProgFunc {
		if len(stack) == 0 {
			return nil
		}
		return stack[len(stack)-1]
	}
	ast.Inspect(file.AST, func(n ast.Node) bool {
		switch x := n.(type) {
		case nil:
			return true
		case *ast.FuncDecl:
			if pf := decls[x]; pf != nil {
				stack = append(stack, pf)
				if x.Body != nil {
					ast.Inspect(x.Body, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							p.indexCall(pkg, file, call, pf)
						}
						return true
					})
				}
				stack = stack[:len(stack)-1]
			}
			return false // body already walked above with the right owner
		case *ast.CallExpr:
			p.indexCall(pkg, file, x, cur()) // package-level initializer
		}
		return true
	})
}

func (p *Program) indexCall(pkg *Package, file *File, call *ast.CallExpr, caller *ProgFunc) {
	name := calleeFullName(pkg.Info, call)
	if name == "" {
		return
	}
	site := &ProgCall{Pkg: pkg, File: file, Call: call, Callee: name, Caller: caller}
	p.Callers[name] = append(p.Callers[name], site)
	if caller != nil {
		caller.calls = append(caller.calls, site)
	}
}

// calleeFullName resolves a call to the FullName of a declared function or
// method; "" for builtins, conversions, func-typed variables and anything
// else without a *types.Func object.
func calleeFullName(info *types.Info, call *ast.CallExpr) string {
	fun := ast.Unparen(call.Fun)
	// Unwrap generic instantiations: f[T](x).
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(x.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(x.X)
	}
	var obj types.Object
	switch x := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[x]
	case *ast.SelectorExpr:
		obj = info.Uses[x.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}
