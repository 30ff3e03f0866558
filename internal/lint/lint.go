// Package lint is aqualint's analysis engine: a self-contained static
// checker, built only on the standard library's go/ast + go/types, that
// machine-checks the repository's determinism and simulation-safety
// invariants. The simulator's evaluation rests on same-seed runs being
// byte-identical; six analyzers turn the conventions that keep that true —
// virtual time only, seeded RNGs only, no order-dependent map iteration,
// no silently dropped errors, catalogued metric names, seeds from the run
// configuration — into compiler-grade checks. Two more, unreached and
// onevalue, keep the tree free of code and options nothing runs (see
// DESIGN.md §8).
//
// Findings can be suppressed per line with an explanation:
//
//	//aqualint:allow <check> <reason>
//
// The directive covers its own line and the line below it, so it works
// both as a trailing comment and as a standalone comment above the
// flagged statement. A directive without a reason, or naming an unknown
// check, is itself reported; so, in a whole-program run, is an unreached
// or onevalue allow that suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer hit.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Message)
}

// File is one parsed source file with its package context.
type File struct {
	Name string // file path as parsed
	AST  *ast.File
	Test bool // *_test.go file (syntactic analyzers only)
}

// Package is one loaded, parsed and (for non-test files) type-checked
// package, the unit the analyzers operate on.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*File
	// Info holds type information for the non-test files; nil when the
	// package has no compiled files (e.g. a test-only directory).
	Info *types.Info
}

// Reporter receives findings from an analyzer run.
type Reporter func(pos token.Pos, format string, args ...any)

// Analyzer is one named check. Run receives the whole Program (call
// graph + package set) so interprocedural analyzers can look across
// files, the package and file under analysis, the scoping Rule, and a
// position-based Reporter; per-file syntactic analyzers simply ignore
// the Program.
type Analyzer struct {
	Name string
	Doc  string
	// NeedsTypes restricts the analyzer to type-checked (non-test) files.
	NeedsTypes bool
	Run        func(prog *Program, pkg *Package, file *File, rule Rule, report Reporter)
}

// Analyzers returns the registry of all checks in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		wallclockAnalyzer,
		globalrandAnalyzer,
		maporderAnalyzer,
		droppederrAnalyzer,
		metricnameAnalyzer,
		seedflowAnalyzer,
		unreachedAnalyzer,
		onevalueAnalyzer,
	}
}

// AnalyzerNames returns the known check names in stable order.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

func analyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies every check enabled in cfg to the packages and returns the
// surviving findings sorted by position then check name. The whole-
// program call graph is built once up front and shared by every
// interprocedural analyzer.
func Run(pkgs []*Package, cfg Config) []Finding {
	prog := NewProgram(pkgs)
	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, runPackage(prog, pkg, cfg)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return dedup(findings)
}

// deletionChecks are the checks whose findings move when code elsewhere
// changes: an allow for one of them goes stale when the write or use it
// covered is deleted, so a whole-program run reports one that suppresses
// nothing.
var deletionChecks = map[string]bool{"unreached": true, "onevalue": true}

func runPackage(prog *Program, pkg *Package, cfg Config) []Finding {
	var findings []Finding
	whole := len(prog.mainPackages()) > 0
	for _, file := range pkg.Files {
		allows, bad := parseAllows(pkg.Fset, file.AST)
		findings = append(findings, bad...)
		ran := make(map[string]bool)
		for _, name := range sortedCheckNames(cfg) {
			rule := cfg.Checks[name]
			az := analyzerByName(name)
			if az == nil || !rule.appliesTo(pkg.PkgPath) {
				continue
			}
			if file.Test && (az.NeedsTypes || !rule.Tests) {
				continue
			}
			if az.NeedsTypes && pkg.Info == nil {
				continue
			}
			report := func(pos token.Pos, format string, args ...any) {
				p := pkg.Fset.Position(pos)
				if allows.allowed(p.Line, az.Name) {
					return
				}
				findings = append(findings, Finding{
					Pos:     p,
					Check:   az.Name,
					Message: fmt.Sprintf(format, args...),
				})
			}
			az.Run(prog, pkg, file, rule, report)
			ran[name] = true
		}
		for _, a := range allows {
			if whole && deletionChecks[a.check] && ran[a.check] && !a.used {
				findings = append(findings, Finding{Pos: a.pos, Check: "directive",
					Message: fmt.Sprintf("aqualint:allow %s suppresses nothing; delete it", a.check)})
			}
		}
	}
	return findings
}

func sortedCheckNames(cfg Config) []string {
	names := make([]string, 0, len(cfg.Checks))
	for name := range cfg.Checks {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func dedup(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f.Pos == fs[i-1].Pos && f.Check == fs[i-1].Check {
			continue
		}
		out = append(out, f)
	}
	return out
}

// ---------------------------------------------------------------------------
// //aqualint:allow directives

const directivePrefix = "//aqualint:"

// allow is one well-formed //aqualint:allow directive.
type allow struct {
	pos   token.Position
	check string
	used  bool // it suppressed a finding
}

// allowSet is a file's allow directives in source order.
type allowSet []*allow

// allowed reports whether a directive for check covers line, its own or
// the one below, and marks each such directive used.
func (a allowSet) allowed(line int, check string) bool {
	ok := false
	for _, d := range a {
		if d.check == check && (line == d.pos.Line || line == d.pos.Line+1) {
			d.used, ok = true, true
		}
	}
	return ok
}

// parseAllows extracts //aqualint:allow directives from the file. Each
// directive covers its own line and the next, so it can sit trailing the
// flagged statement or on the line above it. Malformed directives are
// returned as findings under the "directive" pseudo-check.
func parseAllows(fset *token.FileSet, file *ast.File) (allowSet, []Finding) {
	var allows allowSet
	var bad []Finding
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			body := strings.TrimPrefix(c.Text, directivePrefix)
			fields := strings.Fields(body)
			switch {
			case len(fields) == 0 || fields[0] != "allow":
				bad = append(bad, Finding{Pos: pos, Check: "directive",
					Message: fmt.Sprintf("unknown aqualint directive %q (only \"allow\" is supported)", body)})
			case len(fields) < 2 || analyzerByName(fields[1]) == nil:
				bad = append(bad, Finding{Pos: pos, Check: "directive",
					Message: fmt.Sprintf("aqualint:allow needs a known check name (one of %s)", strings.Join(AnalyzerNames(), ", "))})
			case len(fields) < 3:
				bad = append(bad, Finding{Pos: pos, Check: "directive",
					Message: fmt.Sprintf("aqualint:allow %s needs a reason explaining why the check does not apply", fields[1])})
			default:
				allows = append(allows, &allow{pos: pos, check: fields[1]})
			}
		}
	}
	return allows, bad
}

// ---------------------------------------------------------------------------
// shared AST helpers

// importNames returns the local names under which path is imported in the
// file (usually one), and whether it is dot-imported.
func importNames(file *ast.File, path string) (names map[string]bool, dot bool, spec *ast.ImportSpec) {
	names = make(map[string]bool)
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		switch {
		case imp.Name == nil:
			names[defaultImportName(path)] = true
			spec = imp
		case imp.Name.Name == ".":
			dot = true
			spec = imp
		case imp.Name.Name == "_":
			// blank import: no usable name
		default:
			names[imp.Name.Name] = true
			spec = imp
		}
	}
	return names, dot, spec
}

func defaultImportName(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// rootIdent walks selector/index expressions down to their base identifier
// (s.total -> s, xs[i] -> xs); nil when the base is not an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// usesObject reports whether the expression tree references obj.
func usesObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
