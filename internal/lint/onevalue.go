package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

var onevalueAnalyzer = &Analyzer{
	Name: "onevalue",
	Doc: "report fields of exported untagged structs that non-test code " +
		"writes with at most one constant value",
	NeedsTypes: true,
	Run:        runOnevalue,
}

// isWatchedStruct reports whether a type declaration is one onevalue
// watches: an exported struct none of whose fields carries a tag. A
// tagged struct is filled by reflection, whose writes the check cannot
// see.
func isWatchedStruct(ts *ast.TypeSpec) bool {
	fields := structFields(ts)
	if !ts.Name.IsExported() || fields == nil {
		return false
	}
	for _, f := range fields {
		if f.Tag != nil {
			return false
		}
	}
	return true
}

// fieldWrites is every value non-test code writes to one watched field.
type fieldWrites struct {
	owner    string            // objKey of the struct's type name
	values   map[string]string // exact constant -> as written in a finding
	defaults map[string]string // constants the struct's own functions write
	zero     string            // key of the zero value, once one is written
	varying  bool              // some write is not a constant
}

// constant records e in values when it is a constant expression or nil.
func constant(info *types.Info, e ast.Expr, values map[string]string) bool {
	tv := info.Types[e]
	switch {
	case tv.Value != nil:
		values[tv.Value.ExactString()] = tv.Value.String()
	case tv.IsNil():
		values["nil"] = "nil"
	default:
		return false
	}
	return true
}

// write records e written to the field: a constant is a value, or a
// default when the struct's own function writes it; anything else makes
// the field varying.
func (f *fieldWrites) write(info *types.Info, e ast.Expr, own map[string]bool) {
	into := f.values
	if own[f.owner] {
		into = f.defaults
	}
	if !constant(info, e, into) {
		f.varying = true
	}
}

// resolved is the set of values the field takes: what other code writes
// and the defaults its own functions write, where a written zero value
// resolves to the default when there is exactly one.
func (f *fieldWrites) resolved() map[string]string {
	out := make(map[string]string)
	for k, v := range f.values {
		out[k] = v
	}
	if f.zero != "" && len(f.defaults) == 1 {
		delete(out, f.zero)
	}
	for k, v := range f.defaults {
		out[k] = v
	}
	return out
}

// writeZero records the zero value of t.
func (f *fieldWrites) writeZero(t types.Type) {
	zero := "nil"
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			zero = "false"
		case u.Info()&types.IsString != 0:
			zero = `""`
		default:
			zero = "0"
		}
	case *types.Struct, *types.Array:
		zero = "its zero value"
	}
	f.values[zero] = zero
	f.zero = zero
}

// owned is the set of structs, by objKey, whose own function fd is: the
// types of its receiver, parameters and results, one pointer stripped,
// that fd's package declares. A constant it assigns to their fields is a
// default (a withDefaults method, a constructor's if cfg.X == 0).
func (p *Program) owned(pkg *Package, fd *ast.FuncDecl) map[string]bool {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	vars := []*types.Var{sig.Recv()}
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			vars = append(vars, tuple.At(i))
		}
	}
	own := make(map[string]bool)
	for _, v := range vars {
		if v == nil {
			continue
		}
		if named := namedOf(v.Type()); named != nil {
			key := objKey(pkg.Fset, named.Obj())
			if d := p.declIndex()[key]; d != nil && d.Pkg == pkg {
				own[key] = true
			}
		}
	}
	return own
}

// optionWrites collects, for every exported field of a watched struct,
// the values the program's compiled code writes to it. A keyed literal
// that omits the field writes its zero value. A constant assigned inside
// one of the struct's own functions (owned) is the default that zero
// resolves to, not a second value. An assignment from a non-constant, an
// increment or an address taken anywhere, the struct's own functions
// included, makes the field varying. nil when the load holds no main
// package.
func (p *Program) optionWrites() map[string]*fieldWrites {
	if p.options != nil || len(p.mainPackages()) == 0 {
		return p.options
	}
	p.options = make(map[string]*fieldWrites)
	for key, d := range p.declIndex() {
		ts, ok := d.Node.(*ast.TypeSpec)
		if !ok || !isWatchedStruct(ts) {
			continue
		}
		for _, f := range structFields(ts) {
			for _, name := range f.Names {
				if name.IsExported() {
					p.options[objKey(d.Pkg.Fset, d.Pkg.Info.Defs[name])] = &fieldWrites{owner: key, values: make(map[string]string), defaults: make(map[string]string)}
				}
			}
		}
	}
	for _, pkg := range p.Pkgs {
		if pkg.Info == nil {
			continue
		}
		info := pkg.Info
		// field resolves a selector to the watched field it writes.
		field := func(e ast.Expr) *fieldWrites {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok || info.Selections[sel] == nil || info.Selections[sel].Kind() != types.FieldVal {
				return nil
			}
			return p.options[objKey(pkg.Fset, info.Selections[sel].Obj())]
		}
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			for _, d := range file.AST.Decls {
				var own map[string]bool
				if fd, ok := d.(*ast.FuncDecl); ok {
					own = p.owned(pkg, fd)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.CompositeLit:
						p.literalWrites(pkg, x)
					case *ast.AssignStmt:
						for i, lhs := range x.Lhs {
							f := field(lhs)
							switch {
							case f == nil:
							case x.Tok != token.ASSIGN || len(x.Lhs) != len(x.Rhs):
								f.varying = true
							default:
								f.write(info, x.Rhs[i], own)
							}
						}
					case *ast.IncDecStmt:
						if f := field(x.X); f != nil {
							f.varying = true
						}
					case *ast.UnaryExpr:
						if f := field(x.X); f != nil && x.Op == token.AND {
							f.varying = true
						}
					}
					return true
				})
			}
		}
	}
	return p.options
}

// literalWrites records what a composite literal of a watched struct
// writes to each of its fields. A literal builds a fresh value no default
// has reached yet, so even a constructor's literal writes values.
func (p *Program) literalWrites(pkg *Package, lit *ast.CompositeLit) {
	named := namedOf(pkg.Info.Types[lit].Type)
	if named == nil {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	keyed := make(map[string]ast.Expr)
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			keyed[kv.Key.(*ast.Ident).Name] = kv.Value
		} else {
			keyed[st.Field(i).Name()] = elt
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		f := p.options[objKey(pkg.Fset, st.Field(i))]
		switch {
		case f == nil:
		case keyed[st.Field(i).Name()] != nil:
			f.write(pkg.Info, keyed[st.Field(i).Name()], nil)
		default:
			f.writeZero(st.Field(i).Type())
		}
	}
}

func runOnevalue(prog *Program, pkg *Package, file *File, rule Rule, report Reporter) {
	writes := prog.optionWrites()
	if writes == nil {
		return
	}
	for _, d := range file.AST.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || !isWatchedStruct(ts) {
				continue
			}
			for _, f := range structFields(ts) {
				for _, name := range f.Names {
					w := writes[objKey(pkg.Fset, pkg.Info.Defs[name])]
					if w == nil || w.varying {
						continue
					}
					switch values := w.resolved(); len(values) {
					case 0:
						report(name.Pos(), "%s.%s: no non-test code writes it; delete the field", ts.Name.Name, name.Name)
					case 1:
						for _, v := range values { // the one value
							report(name.Pos(), "%s.%s: non-test code only ever sets it to %s; make it a constant", ts.Name.Name, name.Name, v)
						}
					}
				}
			}
		}
	}
}
