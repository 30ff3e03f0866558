package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var onevalueAnalyzer = &Analyzer{
	Name: "onevalue",
	Doc: "report fields of exported *Config, *Options and *Policy structs " +
		"that non-test code writes with at most one constant value",
	NeedsTypes: true,
	Run:        runOnevalue,
}

// isOptionStruct reports whether a type declaration is one onevalue
// watches: an exported struct named *Config, *Options or *Policy.
func isOptionStruct(ts *ast.TypeSpec) bool {
	name := ts.Name.Name
	return ts.Name.IsExported() && structFields(ts) != nil &&
		(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy"))
}

// fieldWrites is every value non-test code writes to one option field.
type fieldWrites struct {
	owner    string            // objKey of the struct's type name
	values   map[string]string // exact constant -> as written in a finding
	defaults map[string]string // constants the struct's own methods write
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

// resolved is the set of values the field takes: a zero value its own
// methods default is that default.
func (f *fieldWrites) resolved() map[string]string {
	if f.zero == "" || len(f.defaults) != 1 {
		return f.values
	}
	out := make(map[string]string)
	for k, v := range f.values {
		out[k] = v
	}
	delete(out, f.zero)
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

// optionWrites collects, for every exported field of an option struct,
// the values the program's compiled code writes to it. A keyed literal
// that omits the field writes its zero value. A constant written inside
// the struct's own methods (the withDefaults idiom) is the default that
// zero resolves to, not a second value. An assignment from a non-constant,
// an increment or an address taken elsewhere makes the field varying. nil
// when the load holds no main package.
func (p *Program) optionWrites() map[string]*fieldWrites {
	if p.options != nil || len(p.mainPackages()) == 0 {
		return p.options
	}
	p.options = make(map[string]*fieldWrites)
	for key, d := range p.declIndex() {
		ts, ok := d.Node.(*ast.TypeSpec)
		if !ok || !isOptionStruct(ts) {
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
		// field resolves a selector to the option field it writes, and
		// whether the write sits in a method of the field's own struct.
		field := func(e ast.Expr, recv string) (*fieldWrites, bool) {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok || info.Selections[sel] == nil || info.Selections[sel].Kind() != types.FieldVal {
				return nil, false
			}
			f := p.options[objKey(pkg.Fset, info.Selections[sel].Obj())]
			return f, f != nil && f.owner == recv
		}
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			for _, d := range file.AST.Decls {
				recv := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					recv = recvKey(pkg, fd)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.CompositeLit:
						p.literalWrites(pkg, x)
					case *ast.AssignStmt:
						for i, lhs := range x.Lhs {
							f, own := field(lhs, recv)
							simple := x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs)
							switch {
							case f == nil:
							case own:
								if simple {
									constant(info, x.Rhs[i], f.defaults)
								}
							case !simple || !constant(info, x.Rhs[i], f.values):
								f.varying = true
							}
						}
					case *ast.IncDecStmt:
						if f, own := field(x.X, recv); f != nil && !own {
							f.varying = true
						}
					case *ast.UnaryExpr:
						if f, own := field(x.X, recv); f != nil && !own && x.Op == token.AND {
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

// literalWrites records what a composite literal of an option struct
// writes to each of its fields.
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
			if !constant(pkg.Info, keyed[st.Field(i).Name()], f.values) {
				f.varying = true
			}
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
			if !ok || !isOptionStruct(ts) {
				continue
			}
			for _, f := range structFields(ts) {
				for _, name := range f.Names {
					w := writes[objKey(pkg.Fset, pkg.Info.Defs[name])]
					if w == nil || w.varying || len(w.resolved()) > 1 {
						continue
					}
					if len(w.values) == 0 {
						report(name.Pos(), "%s.%s: no non-test code writes it; delete the field", ts.Name.Name, name.Name)
						continue
					}
					for _, v := range w.resolved() { // the one value
						report(name.Pos(), "%s.%s: non-test code only ever sets it to %s; make it a constant", ts.Name.Name, name.Name, v)
					}
				}
			}
		}
	}
}
