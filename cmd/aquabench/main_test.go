package main

import (
	"bytes"
	"encoding/json"
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

// run executes the binary in dir and returns its exit code and output.
func run(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(binary, args...)
	cmd.Dir = dir
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), so.String(), se.String()
	}
	if err != nil {
		t.Fatalf("running aquabench %v: %v", args, err)
	}
	return 0, so.String(), se.String()
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
			code, stdout, stderr := run(t, t.TempDir(), r.args...)
			if code != r.code {
				t.Errorf("exit code %d, want %d\nstderr: %s", code, r.code, stderr)
			}
			for _, want := range r.stderr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr)
				}
			}
			if r.listed == nil {
				return
			}
			var listed []string
			for _, line := range strings.Split(stdout, "\n") {
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

// TestChaosJSONParallelDeterministic drives the mechanical export
// (MarshalResult, the result's Rows and JSON field set) through the binary:
// the chaos sweep under -format json prints the same bytes at one worker
// and at two, and those bytes decode to the chaos result with its rows.
func TestChaosJSONParallelDeterministic(t *testing.T) {
	var outs []string
	for _, parallel := range []string{"1", "2"} {
		code, stdout, stderr := run(t, t.TempDir(), "-exp", "chaos", "-scale", "quick", "-format", "json", "-parallel", parallel)
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d\n%s", parallel, code, stderr)
		}
		outs = append(outs, stdout)
	}
	if outs[0] != outs[1] {
		t.Errorf("-format json stdout differs between -parallel 1 and 2:\n%s\nvs\n%s", outs[0], outs[1])
	}
	var results []struct {
		ID   string     `json:"id"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(outs[0]), &results); err != nil {
		t.Fatalf("-format json stdout does not decode: %v\n%s", err, outs[0])
	}
	if len(results) != 1 || results[0].ID != "chaos" || len(results[0].Rows) == 0 {
		t.Errorf("want one chaos result with rows, got %+v", results)
	}
}
