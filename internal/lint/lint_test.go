package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// parseFixture loads one testdata file as a single-file package. Fixtures
// are self-contained, so type-checking runs without an importer and
// tolerates the resulting unresolved std imports — the analyzers only
// need types for locally declared code.
func parseFixture(t *testing.T, name, pkgPath string, typed bool) *Package {
	t.Helper()
	path := filepath.Join("testdata", name)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{PkgPath: pkgPath, Fset: fset, Files: []*File{{Name: path, AST: f}}}
	if typed {
		pkg.Info = newTypesInfo()
		conf := types.Config{Error: func(error) {}}
		conf.Check(pkgPath, fset, []*ast.File{f}, pkg.Info) //aqualint:allow droppederr fixtures type-check with expected unresolved-import errors
	}
	return pkg
}

var wantRE = regexp.MustCompile(`want (\w+)`)

// expectations collects "// want <check>" markers per line.
func expectations(pkg *Package) map[int][]string {
	want := make(map[int][]string)
	for _, file := range pkg.Files {
		for _, cg := range file.AST.Comments {
			for _, c := range cg.List {
				line := pkg.Fset.Position(c.Pos()).Line
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					want[line] = append(want[line], m[1])
				}
			}
		}
	}
	return want
}

func checkFixture(t *testing.T, fixture, check string, typed bool, rule Rule) {
	t.Helper()
	pkg := parseFixture(t, fixture, "fixture/"+check, typed)
	findings := Run([]*Package{pkg}, Config{Checks: map[string]Rule{check: rule}})
	got := make(map[int][]string)
	for _, f := range findings {
		got[f.Pos.Line] = append(got[f.Pos.Line], f.Check)
	}
	want := expectations(pkg)
	lines := make(map[int]bool)
	for l := range got {
		lines[l] = true
	}
	for l := range want {
		lines[l] = true
	}
	var sorted []int
	for l := range lines {
		sorted = append(sorted, l)
	}
	sort.Ints(sorted)
	for _, l := range sorted {
		if fmt.Sprint(got[l]) != fmt.Sprint(want[l]) {
			t.Errorf("%s:%d: got findings %v, want %v", fixture, l, got[l], want[l])
		}
	}
}

func TestWallclockFixture(t *testing.T) {
	checkFixture(t, "wallclock.go", "wallclock", false, Rule{Tests: true})
}

func TestGlobalrandFixture(t *testing.T) {
	checkFixture(t, "globalrand.go", "globalrand", false, Rule{Tests: true})
}

func TestMaporderFixture(t *testing.T) {
	checkFixture(t, "maporder.go", "maporder", true, Rule{Sinks: []string{"fixture/maporder"}})
}

func TestDroppederrFixture(t *testing.T) {
	checkFixture(t, "droppederr.go", "droppederr", true, Rule{})
}

func TestMetricnameFixture(t *testing.T) {
	checkFixture(t, "metricname.go", "metricname", true, Rule{Sinks: []string{"fixture/metricname"}})
}

func TestSeedflowFixture(t *testing.T) {
	checkFixture(t, "seedflow.go", "seedflow", true, Rule{Sinks: []string{"fixture/seedflow"}})
}

func TestUnreachedFixture(t *testing.T) {
	checkFixture(t, "unreached.go", "unreached", true, Rule{})
}

func TestOnevalueFixture(t *testing.T) {
	checkFixture(t, "onevalue.go", "onevalue", true, Rule{})
}

// TestUnreachedReportsOrphanPackage: a package no main package reaches is
// one finding at its package clause; a load without a main package is not
// a whole program, so the check stays silent on it.
func TestUnreachedReportsOrphanPackage(t *testing.T) {
	main := parseFixture(t, "unreached.go", "fixture/unreached", true)
	orphan := parseSource(t, "fixture/orphan", "package orphan\n\nfunc Helper() int { return 1 }\n")
	orphan.Info = newTypesInfo()
	if _, err := (&types.Config{}).Check("fixture/orphan", orphan.Fset, []*ast.File{orphan.Files[0].AST}, orphan.Info); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Checks: map[string]Rule{"unreached": {Include: []string{"fixture/orphan"}}}}
	findings := Run([]*Package{main, orphan}, cfg)
	if len(findings) != 1 || findings[0].Pos.Line != 1 || !strings.Contains(findings[0].Message, "package fixture/orphan") {
		t.Fatalf("want one finding at the orphan's package clause, got %v", findings)
	}
	if findings := Run([]*Package{orphan}, cfg); len(findings) != 0 {
		t.Fatalf("a load without a main package must not be judged, got %v", findings)
	}
}

func TestMalformedDirectivesAreFindings(t *testing.T) {
	pkg := parseFixture(t, "directive.go", "fixture/directive", false)
	findings := Run([]*Package{pkg}, Config{Checks: map[string]Rule{}})
	if len(findings) != 4 {
		t.Fatalf("got %d findings, want 4 malformed directives: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Check != "directive" {
			t.Errorf("unexpected finding %v", f)
		}
	}
}

func TestPackageGlobExcludeSuppresses(t *testing.T) {
	// The internal/stats mechanism: a package glob exempts a whole
	// package from a check.
	pkg := parseFixture(t, "globalrand.go", "fixture/globalrand", false)
	cfg := Config{Checks: map[string]Rule{
		"globalrand": {Exclude: []string{"fixture/globalrand"}},
	}}
	if findings := Run([]*Package{pkg}, cfg); len(findings) != 0 {
		t.Fatalf("excluded package still reported: %v", findings)
	}
}

func TestMatchGlob(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{"...", "anything/at/all", true},
		{"aquatope/internal/...", "aquatope/internal/sim", true},
		{"aquatope/internal/...", "aquatope/internal", true},
		{"aquatope/internal/...", "aquatope/internals", false},
		{"aquatope/internal/stats", "aquatope/internal/stats", true},
		{"aquatope/internal/stats", "aquatope/internal/stats/sub", false},
	}
	for _, c := range cases {
		if got := matchGlob(c.pattern, c.path); got != c.want {
			t.Errorf("matchGlob(%q, %q) = %v, want %v", c.pattern, c.path, got, c.want)
		}
	}
}

// parseSource builds a package from an in-memory file, stamped with an
// arbitrary import path so config scoping can be tested.
func parseSource(t *testing.T, pkgPath, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Files: []*File{{Name: "src.go", AST: f}}}
}

func TestDefaultConfigFlagsSeededViolation(t *testing.T) {
	// A deliberate wall-clock call planted in a simulation package must
	// fail the default policy (the acceptance check for the lint gate).
	pkg := parseSource(t, "aquatope/internal/faas", `package faas
import "time"
func bad() { time.Sleep(time.Second) }
`)
	findings := Run([]*Package{pkg}, DefaultConfig())
	if len(findings) != 1 || findings[0].Check != "wallclock" {
		t.Fatalf("want exactly one wallclock finding, got %v", findings)
	}
}

func TestDefaultConfigExemptsStatsFromGlobalrand(t *testing.T) {
	pkg := parseSource(t, "aquatope/internal/stats", `package stats
import "math/rand"
func ok(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
`)
	if findings := Run([]*Package{pkg}, DefaultConfig()); len(findings) != 0 {
		t.Fatalf("internal/stats must be exempt from globalrand, got %v", findings)
	}
}

// TestDefaultConfigCoversSched: the pluggable scheduler package must sit
// under every determinism check — competitor implementations are exactly
// where ad-hoc wall-clock or global randomness would creep in.
func TestDefaultConfigCoversSched(t *testing.T) {
	cfg := DefaultConfig()
	for check, rule := range cfg.Checks {
		if !rule.appliesTo("aquatope/internal/sched") {
			t.Errorf("check %s does not cover aquatope/internal/sched", check)
		}
	}
	// And the gate must actually bite there: a planted wall-clock call in
	// a sched source file is a finding.
	pkg := parseSource(t, "aquatope/internal/sched", `package sched
import "time"
func bad() { time.Sleep(time.Second) }
`)
	findings := Run([]*Package{pkg}, cfg)
	if len(findings) != 1 || findings[0].Check != "wallclock" {
		t.Fatalf("want exactly one wallclock finding in internal/sched, got %v", findings)
	}
}
