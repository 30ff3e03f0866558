package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// Program is the whole loaded package set plus the whole-program indices
// the interprocedural analyzers share: a function index keyed by the fully
// qualified name of each declared function and a reverse call index from
// callee to every resolved call site (seedflow); and a declaration index
// keyed by objKey, with the reachability (unreached) and option writes
// (onevalue) computed over it on first use. Per-file syntactic analyzers
// ignore it.
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

	decls   map[string]*progDecl // objKey -> declaration, built by declIndex
	reach   *reachability
	options map[string]*fieldWrites
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
	if fn := calleeObject(info, call); fn != nil {
		return fn.FullName()
	}
	return ""
}

// calleeObject is the declared function or method a call resolves to; nil
// for builtins, conversions and func-typed values.
func calleeObject(info *types.Info, call *ast.CallExpr) *types.Func {
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
	fn, _ := obj.(*types.Func)
	return fn
}

// objKey names a declared object by its file, line and name. The gc export
// data keeps each object's file and line (not its column), so the object a
// package declares from source and the same object its importers see
// through export data share a key, as Funcs' FullName keys do for
// functions; unlike FullName it also names struct fields.
func objKey(fset *token.FileSet, obj types.Object) string {
	pos := fset.Position(obj.Pos())
	return pos.Filename + ":" + strconv.Itoa(pos.Line) + ":" + obj.Name()
}

// progDecl is one package-level declaration, method or struct field of a
// type-checked package.
type progDecl struct {
	Pkg  *Package
	Node ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec; nil for a field
	Recv string   // a method's receiver type key; "" otherwise
	Name string
}

// declIndex maps the objKey of every declaration in the program's
// compiled files to where it is declared.
func (p *Program) declIndex() map[string]*progDecl {
	if p.decls != nil {
		return p.decls
	}
	p.decls = make(map[string]*progDecl)
	for _, pkg := range p.Pkgs {
		if pkg.Info == nil {
			continue
		}
		add := func(id *ast.Ident, node ast.Node, recv string) {
			if obj := pkg.Info.Defs[id]; obj != nil && id.Name != "_" {
				p.decls[objKey(pkg.Fset, obj)] = &progDecl{Pkg: pkg, Node: node, Recv: recv, Name: id.Name}
			}
		}
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			for _, d := range file.AST.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d, recvKey(pkg, d))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s, "")
							for _, f := range structFields(s) {
								for _, name := range f.Names {
									add(name, nil, "")
								}
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								add(name, s, "")
							}
						}
					}
				}
			}
		}
	}
	return p.decls
}

// recvKey is the objKey of a method's receiver type name; "" for a
// function.
func recvKey(pkg *Package, fd *ast.FuncDecl) string {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return ""
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := namedOf(recv.Type()); named != nil {
			return objKey(pkg.Fset, named.Obj())
		}
	}
	return ""
}

// namedOf strips one pointer and returns the named type, generic origin
// included; nil when t is not named.
func namedOf(t types.Type) *types.Named {
	if named, ok := deref(t).(*types.Named); ok {
		return named.Origin()
	}
	return nil
}

func deref(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// structFields returns the field list of a struct type declaration; nil
// for any other type.
func structFields(ts *ast.TypeSpec) []*ast.Field {
	if st, ok := ts.Type.(*ast.StructType); ok {
		return st.Fields.List
	}
	return nil
}

// mainPackages returns the program's loaded main packages, the roots the
// whole-program checks measure everything else from. Without one the load
// is not a whole program and those checks stay silent.
func (p *Program) mainPackages() []*Package {
	var mains []*Package
	for _, pkg := range p.Pkgs {
		if pkg.Info != nil && firstFile(pkg).AST.Name.Name == "main" {
			mains = append(mains, pkg)
		}
	}
	return mains
}

// firstFile is a typed package's first compiled file: where a finding
// about the package as a whole is reported.
func firstFile(pkg *Package) *File {
	for _, f := range pkg.Files {
		if !f.Test {
			return f
		}
	}
	return nil
}
