package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

var unreachedAnalyzer = &Analyzer{
	Name: "unreached",
	Doc: "report exported identifiers, methods and struct fields that " +
		"nothing reachable from a main package uses, and packages none of " +
		"whose identifiers is reached",
	NeedsTypes: true,
	Run:        runUnreached,
}

// stdDynamic are the method names the standard library looks up by type
// assertion on a value it holds as any (fmt's Stringer, GoStringer,
// Formatter and error; encoding/json's marshalers; the errors chain). No
// parameter type names them, so a method with one of these names counts
// as called once its receiver type is reached.
var stdDynamic = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Unwrap": true, "Is": true, "As": true,
}

// reachability is what the program's main packages reach: declaration
// keys, and the packages at least one of whose declarations is reached.
type reachability struct {
	reached map[string]bool
	pkgs    map[string]bool
}

// reachability walks the reference graph from the roots: each main
// package's main, and the init functions and blank variables of every
// package a main package imports, directly or not. A reached declaration
// reaches what its source names. A method is reached when reached code
// names it, or when its receiver type is reached and reached code calls
// a method of that name through an interface — one the program declares
// and calls, one a standard-library function takes, or a stdDynamic name.
// nil when the load holds no main package.
func (p *Program) reachability() *reachability {
	if p.reach != nil || len(p.mainPackages()) == 0 {
		return p.reach
	}
	decls := p.declIndex()
	byPath := make(map[string]*Package)
	for _, pkg := range p.Pkgs {
		if pkg.Info != nil {
			byPath[pkg.PkgPath] = pkg
		}
	}
	w := &reachWalk{reached: make(map[string]bool), dynamic: make(map[string]bool), decls: decls, byPath: byPath}

	linked := make(map[string]bool)
	var link func(pkg *Package)
	link = func(pkg *Package) {
		if linked[pkg.PkgPath] {
			return
		}
		linked[pkg.PkgPath] = true
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			for _, imp := range file.AST.Imports {
				if dep := byPath[strings.Trim(imp.Path.Value, `"`)]; dep != nil {
					link(dep)
				}
			}
		}
	}
	for _, pkg := range p.mainPackages() {
		link(pkg)
	}
	for _, pkg := range p.Pkgs {
		if !linked[pkg.PkgPath] {
			continue
		}
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			for _, d := range file.AST.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && file.AST.Name.Name == "main") {
						w.visit(pkg, d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == 1 && vs.Names[0].Name == "_" {
							w.visit(pkg, vs)
						}
					}
				}
			}
		}
	}
	w.drain()
	for grew := true; grew; {
		grew = false
		for key, d := range decls {
			if d.Recv != "" && !w.reached[key] && w.reached[d.Recv] && (w.dynamic[d.Name] || stdDynamic[d.Name]) {
				w.mark(key)
				grew = true
			}
		}
		w.drain()
	}

	p.reach = &reachability{reached: w.reached, pkgs: make(map[string]bool)}
	for key := range w.reached {
		if d := decls[key]; d != nil {
			p.reach.pkgs[d.Pkg.PkgPath] = true
		}
	}
	return p.reach
}

// reachWalk is the state of one reachability fixpoint.
type reachWalk struct {
	reached map[string]bool
	dynamic map[string]bool // method names reached code calls through an interface
	decls   map[string]*progDecl
	byPath  map[string]*Package
	queue   []*progDecl
}

func (w *reachWalk) mark(key string) {
	if w.reached[key] {
		return
	}
	w.reached[key] = true
	if d := w.decls[key]; d != nil && d.Node != nil {
		w.queue = append(w.queue, d)
	}
}

func (w *reachWalk) drain() {
	for len(w.queue) > 0 {
		d := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		w.visit(d.Pkg, d.Node)
	}
}

// visit marks everything the node's source names.
func (w *reachWalk) visit(pkg *Package, n ast.Node) {
	info := pkg.Info
	markFields := func(t types.Type) {
		if st, ok := deref(t).Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				w.mark(objKey(pkg.Fset, st.Field(i)))
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			w.mark(objKey(pkg.Fset, obj))
			switch obj := obj.(type) {
			case *types.Func:
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					w.dynamic[obj.Name()] = true
				}
			case *types.TypeName:
				if w.byPath[obj.Pkg().Path()] == nil {
					w.interfaceNames(obj.Type())
				}
			}
		case *ast.SelectorExpr:
			// A promoted field or method uses every embedded field on its path.
			if sel := info.Selections[x]; sel != nil {
				t := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					st, ok := deref(t).Underlying().(*types.Struct)
					if !ok {
						break
					}
					w.mark(objKey(pkg.Fset, st.Field(i)))
					t = st.Field(i).Type()
				}
			}
		case *ast.CompositeLit:
			if len(x.Elts) > 0 {
				if _, keyed := x.Elts[0].(*ast.KeyValueExpr); !keyed {
					markFields(info.Types[x].Type)
				}
			}
		case *ast.CallExpr:
			// A standard-library function may call any method of an
			// interface it takes.
			if obj := calleeObject(info, x); obj != nil && obj.Pkg() != nil && w.byPath[obj.Pkg().Path()] == nil {
				params := obj.Type().(*types.Signature).Params()
				for i := 0; i < params.Len(); i++ {
					w.interfaceNames(params.At(i).Type())
				}
			}
		}
		return true
	})
}

// interfaceNames adds the method names of t, when it is an interface, to
// the names called dynamically.
func (w *reachWalk) interfaceNames(t types.Type) {
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			w.dynamic[iface.Method(i).Name()] = true
		}
	}
}

func runUnreached(prog *Program, pkg *Package, file *File, rule Rule, report Reporter) {
	r := prog.reachability()
	if r == nil {
		return
	}
	if !r.pkgs[pkg.PkgPath] {
		if file == firstFile(pkg) {
			report(file.AST.Name.Pos(), "package %s: nothing reachable from a main package uses it; delete it", pkg.PkgPath)
		}
		return
	}
	unreached := func(id *ast.Ident) bool {
		return id.IsExported() && !r.reached[objKey(pkg.Fset, pkg.Info.Defs[id])]
	}
	flag := func(id *ast.Ident, what string) {
		report(id.Pos(), "%s is exported, but nothing reachable from a main package uses it; delete it, or allow it here naming the test that needs it", what)
	}
	for _, d := range file.AST.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := recvKey(pkg, d)
			switch {
			case d.Recv == nil && unreached(d.Name):
				flag(d.Name, d.Name.Name)
			case d.Recv != nil && r.reached[recv] && unreached(d.Name):
				flag(d.Name, "method "+prog.declIndex()[recv].Name+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if unreached(s.Name) {
						flag(s.Name, "type "+s.Name.Name)
						continue
					}
					if !r.reached[objKey(pkg.Fset, pkg.Info.Defs[s.Name])] {
						continue
					}
					for _, f := range structFields(s) {
						for _, name := range f.Names {
							if unreached(name) {
								flag(name, "field "+s.Name.Name+"."+name.Name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if unreached(name) {
							flag(name, name.Name)
						}
					}
				}
			}
		}
	}
}
