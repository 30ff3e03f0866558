package lint

import (
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// TestSelfCheck asserts the default policy enables every registered
// analyzer and that each one actually applies to the simulator core, so TestRepoIsLintClean below genuinely exercises the
// full registry repo-wide rather than a stale subset.
func TestSelfCheck(t *testing.T) {
	cfg := DefaultConfig()
	for _, az := range Analyzers() {
		rule, ok := cfg.Checks[az.Name]
		if !ok {
			t.Errorf("analyzer %s is not enabled in DefaultConfig", az.Name)
			continue
		}
		// internal/sim is inside every check's scope.
		if !rule.appliesTo("aquatope/internal/sim") {
			t.Errorf("check %s does not cover aquatope/internal/sim", az.Name)
		}
	}
	if len(cfg.Checks) != len(Analyzers()) {
		t.Errorf("DefaultConfig enables %d checks but the registry has %d", len(cfg.Checks), len(Analyzers()))
	}
}

// repoLoad is the whole module, loaded once for the tests that judge it.
var repoLoad struct {
	once sync.Once
	root string
	pkgs []*Package
	err  error
}

// loadRepo loads every package of the enclosing module with the real
// loader (go list + export-data type-checking) and returns the module root.
func loadRepo(t *testing.T) (string, []*Package) {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		t.Skip("not running inside a module")
	}
	repoLoad.once.Do(func() {
		repoLoad.root = filepath.Dir(gomod)
		repoLoad.pkgs, repoLoad.err = Load(repoLoad.root)
	})
	if repoLoad.err != nil {
		t.Fatal(repoLoad.err)
	}
	if len(repoLoad.pkgs) == 0 {
		t.Fatal("loader found no packages")
	}
	return repoLoad.root, repoLoad.pkgs
}

// TestRepoIsLintClean enforces the acceptance bar for the lint gate: the
// whole repository must pass every analyzer under the default policy with
// zero un-annotated findings. It exercises the real loader, so it is also
// the loader's integration test.
func TestRepoIsLintClean(t *testing.T) {
	_, pkgs := loadRepo(t)
	var typed int
	for _, p := range pkgs {
		if p.Info != nil {
			typed++
		}
	}
	if typed == 0 {
		t.Fatal("loader type-checked no packages; maporder and droppederr would be inert")
	}
	for _, f := range Run(pkgs, DefaultConfig()) {
		t.Errorf("%s", f)
	}
}

// docRef matches a Go reference inside a code span: a lower-case package
// name, an exported name and an optional field or method.
var docRef = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)

// TestDocsNameRealCode resolves every `pkg.Name` and `pkg.Type.Field` in
// the inline code spans of DESIGN.md, README.md and EXPERIMENTS.md against
// the loaded tree, so a doc that names code the tree no longer has fails.
// pkg is the last element of a non-main package's import path; spans that
// name no such package (std, file names, metric names) are not Go
// references here. Fenced blocks hold shell commands and are skipped.
func TestDocsNameRealCode(t *testing.T) {
	root, pkgs := loadRepo(t)
	byName := make(map[string]*types.Package)
	for _, p := range pkgs {
		if tp := typesPackage(p); tp != nil && tp.Name() != "main" {
			byName[path.Base(p.PkgPath)] = tp
		}
	}
	var refs int
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			spans := strings.Split(line, "`")
			for s := 1; s < len(spans); s += 2 {
				for _, m := range docRef.FindAllStringSubmatch(spans[s], -1) {
					pkg, ok := byName[m[1]]
					if !ok {
						continue
					}
					refs++
					if !resolves(pkg, m[2], m[3]) {
						ref := m[1] + "." + m[2]
						if m[3] != "" {
							ref += "." + m[3]
						}
						t.Errorf("%s:%d: `%s` names nothing in %s", doc, i+1, ref, pkg.Path())
					}
				}
			}
		}
	}
	if refs == 0 {
		t.Fatal("no Go references found in the docs; the scan is inert")
	}
}

// resolves reports whether pkg declares name and, when sel is set, whether
// name's type has a field or method sel.
func resolves(pkg *types.Package, name, sel string) bool {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return false
	}
	if sel == "" {
		return true
	}
	if _, isFunc := obj.(*types.Func); isFunc {
		return false
	}
	found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, sel)
	return found != nil
}

// typesPackage returns the type-checked package behind p: every object
// its files define belongs to it (nil for a package without compiled
// files).
func typesPackage(p *Package) *types.Package {
	if p.Info == nil {
		return nil
	}
	for _, obj := range p.Info.Defs {
		if obj != nil && obj.Pkg() != nil {
			return obj.Pkg()
		}
	}
	return nil
}
