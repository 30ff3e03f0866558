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

	"aquatope/internal/lint"
)

// binary is the aqualint command built once for the whole test binary.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "aqualint-test")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "aqualint")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		panic("building aqualint: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	_ = os.RemoveAll(dir) // best-effort cleanup of a temp directory
	os.Exit(code)
}

// run executes the binary in this package's directory (so ./testdata/...
// patterns resolve) and returns its exit code and output.
func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(binary, args...)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), so.String(), se.String()
	}
	if err != nil {
		t.Fatalf("running aqualint %v: %v", args, err)
	}
	return 0, so.String(), se.String()
}

// TestFlagsAndExitCodes: flags → exit code and what the user is told.
// ./testdata/finding reads the host clock once; `./...` patterns skip
// testdata directories, so it never reaches `make lint`.
func TestFlagsAndExitCodes(t *testing.T) {
	const clean, finding = "aquatope/internal/qmc", "./testdata/finding"
	for _, r := range []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings
		stderr []string
	}{
		{name: "clean", args: []string{clean}, code: 0, stderr: []string{"1 package(s)", "0 finding(s)"}},
		{name: "finding", args: []string{finding}, code: 1,
			stdout: []string{"testdata/finding/finding.go:8:", "[wallclock]"}, stderr: []string{"1 finding(s)"}},
		{name: "finding-outside-selected-checks", args: []string{"-checks", "maporder,droppederr", finding}, code: 0,
			stderr: []string{"2 check(s)", "0 finding(s)"}},
		{name: "unknown-check", args: []string{"-checks", "wallclock,nope", clean}, code: 2,
			stderr: append([]string{`unknown check "nope"`}, lint.AnalyzerNames()...)},
		{name: "unknown-package", args: []string{"./no/such/package"}, code: 2, stderr: []string{"aqualint:"}},
		{name: "undefined-flag", args: []string{"-fix"}, code: 2, stderr: []string{"flag provided but not defined: -fix"}},
	} {
		t.Run(r.name, func(t *testing.T) {
			code, stdout, stderr := run(t, r.args...)
			if code != r.code {
				t.Errorf("exit code %d, want %d\nstdout: %s\nstderr: %s", code, r.code, stdout, stderr)
			}
			for _, want := range r.stdout {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout)
				}
			}
			for _, want := range r.stderr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr)
				}
			}
		})
	}
}

// TestJSONShape: -json puts a JSON array on stdout — empty, not null, when
// clean — whose elements carry file, line, col, check and message.
func TestJSONShape(t *testing.T) {
	code, stdout, stderr := run(t, "-json", "aquatope/internal/qmc")
	if code != 0 || strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean package: exit %d, stdout %q, want 0 and []\n%s", code, stdout, stderr)
	}

	code, stdout, stderr = run(t, "-json", "./testdata/finding")
	if code != 1 {
		t.Errorf("exit code %d, want 1\n%s", code, stderr)
	}
	var got []map[string]any
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout)
	}
	if len(got) != 1 {
		t.Fatalf("%d findings, want 1:\n%s", len(got), stdout)
	}
	want := map[string]any{"file": "testdata/finding/finding.go", "line": 8.0, "check": "wallclock"}
	for k, v := range want {
		if got[0][k] != v {
			t.Errorf("finding[%q] = %v, want %v", k, got[0][k], v)
		}
	}
	for _, k := range []string{"col", "message"} {
		if _, ok := got[0][k]; !ok {
			t.Errorf("finding lacks %q:\n%s", k, stdout)
		}
	}
}
