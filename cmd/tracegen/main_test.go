package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binary is the tracegen command built once for the whole test binary.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tracegen-test")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "tracegen")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		panic("building tracegen: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	_ = os.RemoveAll(dir) // best-effort cleanup of a temp directory
	os.Exit(code)
}

// run executes the binary in dir and returns its exit code and output.
func run(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return runTo(t, dir, "", args...)
}

// runTo is run with stdout sent to the file at stdoutFile instead, unless
// that is empty.
func runTo(t *testing.T, dir, stdoutFile string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(binary, args...)
	cmd.Dir = dir
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	if stdoutFile != "" {
		f, err := os.OpenFile(stdoutFile, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close() //aqualint:allow droppederr opened for the child's writes only
		cmd.Stdout = f
	}
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), so.String(), se.String()
	}
	if err != nil {
		t.Fatalf("running tracegen %v: %v", args, err)
	}
	return 0, so.String(), se.String()
}

// TestFlagsAndExitCodes: flags → exit code and what the user is told.
func TestFlagsAndExitCodes(t *testing.T) {
	dir := t.TempDir()
	// A regular file where -out's parent directory should be: MkdirAll
	// fails whoever runs the test.
	if err := os.WriteFile(filepath.Join(dir, "file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name       string
		args       []string
		stdoutFile string // where stdout goes instead of being captured
		code       int
		stdout     []string // substrings
		stderr     []string
		files      []string // relative to the run directory
	}{
		{name: "seasonal", args: []string{"-kind", "seasonal", "-minutes", "30"}, code: 0,
			stdout: []string{"minute,count\n0,", "\n29,", "# arrivals_sec,cv="}},
		{name: "periodic", args: []string{"-kind", "periodic", "-minutes", "90", "-period", "10"}, code: 0,
			stdout: []string{"minute,count\n0,", "\n89,", "# arrivals_sec,cv="}},
		{name: "ensemble", args: []string{"-kind", "ensemble", "-n", "3", "-minutes", "30", "-out", "traces"}, code: 0,
			stderr: []string{"wrote 3 traces to traces/"},
			files:  []string{"traces/trace00.csv", "traces/trace01.csv", "traces/trace02.csv"}},
		{name: "unknown-kind", args: []string{"-kind", "nope"}, code: 2, stderr: []string{`unknown kind "nope"`}},
		{name: "unwritable-out", args: []string{"-kind", "ensemble", "-n", "1", "-minutes", "5", "-out", "file/sub"}, code: 1,
			stderr: []string{"file"}},
		{name: "full-stdout", args: []string{"-kind", "seasonal", "-minutes", "60"}, stdoutFile: "/dev/full", code: 1,
			stderr: []string{"tracegen:", "no space left on device"}},
	} {
		t.Run(r.name, func(t *testing.T) {
			if r.stdoutFile != "" {
				if _, err := os.Stat(r.stdoutFile); err != nil {
					t.Skipf("no %s here: %v", r.stdoutFile, err)
				}
			}
			code, stdout, stderr := runTo(t, dir, r.stdoutFile, r.args...)
			if code != r.code {
				t.Errorf("exit code %d, want %d\nstderr: %s", code, r.code, stderr)
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
			for _, name := range r.files {
				if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
					t.Errorf("no %s written (stat: %v)", name, err)
				}
			}
		})
	}
}

// TestSameSeedByteEqual: every kind is a pure function of its flags — the
// same seed gives the same bytes, another seed gives different ones.
func TestSameSeedByteEqual(t *testing.T) {
	for _, kind := range []string{"seasonal", "periodic"} {
		t.Run(kind, func(t *testing.T) {
			args := []string{"-kind", kind, "-minutes", "120", "-seed", "5"}
			_, a, _ := run(t, t.TempDir(), args...)
			_, b, _ := run(t, t.TempDir(), args...)
			if a == "" || a != b {
				t.Errorf("two seed-5 runs differ (%d vs %d bytes)", len(a), len(b))
			}
			if _, c, _ := run(t, t.TempDir(), "-kind", kind, "-minutes", "120", "-seed", "6"); c == a {
				t.Error("seed 6 reproduced seed 5's trace")
			}
		})
	}
	t.Run("ensemble", func(t *testing.T) {
		read := func(seed string) []byte {
			dir := t.TempDir()
			if code, _, stderr := run(t, dir, "-kind", "ensemble", "-n", "2", "-minutes", "60", "-seed", seed); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr)
			}
			var all []byte
			for _, name := range []string{"trace00.csv", "trace01.csv"} {
				// No -out: the default directory is traces/.
				data, err := os.ReadFile(filepath.Join(dir, "traces", name))
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, data...)
			}
			return all
		}
		a := read("5")
		if !bytes.Equal(a, read("5")) {
			t.Error("two seed-5 ensembles differ")
		}
		if bytes.Equal(a, read("6")) {
			t.Error("seed 6 reproduced seed 5's ensemble")
		}
	})
}
