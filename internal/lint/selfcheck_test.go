package lint

import (
	"os/exec"
	"path/filepath"
	"strings"
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

// TestRepoIsLintClean enforces the acceptance bar for the lint gate: the
// whole repository must pass every analyzer under the default policy with
// zero un-annotated findings. It exercises the real loader (go list +
// export-data type-checking), so it is also the loader's integration
// test.
func TestRepoIsLintClean(t *testing.T) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		t.Skip("not running inside a module")
	}
	root := filepath.Dir(gomod)
	pkgs, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader found no packages")
	}
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
