package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"aquatope/internal/experiments"
)

// binary is the aquabench command built once for the whole test binary.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "aquabench-test")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "aquabench")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		panic("building aquabench: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	_ = os.RemoveAll(dir) // best-effort cleanup of a temp directory
	os.Exit(code)
}

// TestFlagsAndExitCodes: flags → exit code and what the user is told. No
// row runs an experiment: each exits at flag parsing or validation.
func TestFlagsAndExitCodes(t *testing.T) {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	if len(ids) == 0 {
		t.Fatal("experiment registry is empty")
	}
	for _, r := range []struct {
		name   string
		args   []string
		code   int
		stderr []string // substrings
		listed []string // when set: stdout's first column, line by line
	}{
		{name: "list", args: []string{"-list"}, code: 0, listed: ids},
		{name: "unknown-exp", args: []string{"-exp", "nope"}, code: 2,
			stderr: append([]string{`unknown experiment "nope"`}, ids...)},
		{name: "unknown-format", args: []string{"-format", "xml"}, code: 2, stderr: []string{`unknown format "xml"`}},
		{name: "removed-bench-out-flag", args: []string{"-bench-out", "x"}, code: 2,
			stderr: []string{"flag provided but not defined: -bench-out"}},
		// An IP literal with an out-of-range port fails in net.Listen
		// without a name lookup.
		{name: "pprof-unusable-address", args: []string{"-pprof", "127.0.0.1:99999"}, code: 2,
			stderr: []string{"pprof listener:"}},
	} {
		t.Run(r.name, func(t *testing.T) {
			cmd := exec.Command(binary, r.args...)
			cmd.Dir = t.TempDir()
			var so, se bytes.Buffer
			cmd.Stdout, cmd.Stderr = &so, &se
			code := 0
			var exit *exec.ExitError
			if err := cmd.Run(); errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatalf("running aquabench %v: %v", r.args, err)
			}
			if code != r.code {
				t.Errorf("exit code %d, want %d\nstderr: %s", code, r.code, se.String())
			}
			for _, want := range r.stderr {
				if !strings.Contains(se.String(), want) {
					t.Errorf("stderr lacks %q:\n%s", want, se.String())
				}
			}
			if r.listed == nil {
				return
			}
			var listed []string
			for _, line := range strings.Split(so.String(), "\n") {
				if f := strings.Fields(line); len(f) > 0 {
					listed = append(listed, f[0])
				}
			}
			if strings.Join(listed, " ") != strings.Join(r.listed, " ") {
				t.Errorf("stdout lists %v, want %v (registry order)", listed, r.listed)
			}
		})
	}
}
