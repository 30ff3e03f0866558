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
)

// binary is the aquatrace command and dumpDir holds spans.jsonl and
// metrics.json from one 20-minute aquatope run, both made once for the
// whole test binary.
var binary, dumpDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "aquatrace-test")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "aquatrace")
	aquatope := filepath.Join(dir, "aquatope")
	for _, b := range [][2]string{{binary, "."}, {aquatope, "../aquatope"}} {
		if msg, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			panic("building " + b[1] + ": " + err.Error() + "\n" + string(msg))
		}
	}
	dumpDir = dir
	dump := exec.Command(aquatope, "-app", "chain", "-minutes", "20", "-train", "5", "-budget", "2",
		"-system", "keepalive", "-seed", "3", "-trace-out", "spans.jsonl", "-metrics-out", "metrics.json")
	dump.Dir = dir
	if msg, err := dump.CombinedOutput(); err != nil {
		panic("aquatope -trace-out: " + err.Error() + "\n" + string(msg))
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
		t.Fatalf("running aquatrace %v: %v", args, err)
	}
	return 0, so.String(), se.String()
}

// TestFlagsAndExitCodes: flags → exit code and what the user is told.
func TestFlagsAndExitCodes(t *testing.T) {
	dir := t.TempDir()
	// uncovered.jsonl is a 10 s workflow whose only stage was skipped: a
	// skipped stage contributes no phase, so attribution misses all 10 s.
	for name, dump := range map[string]string{
		"garbled.jsonl": "{\"id\":1,\nnot json\n",
		"uncovered.jsonl": `{"id":1,"kind":"workflow","name":"app","start":0,"end":10,"fields":{"latency_s":10}}
{"id":2,"parent":1,"kind":"stage","name":"s0","start":0,"end":10,"fields":{"skipped":1}}
`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(dump), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	spans := filepath.Join(dumpDir, "spans.jsonl")
	for _, r := range []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings
		stderr []string
	}{
		{name: "missing-trace", args: nil, code: 2, stderr: []string{"usage: aquatrace -trace"}},
		{name: "stray-argument", args: []string{"-trace", spans, "extra"}, code: 2, stderr: []string{"usage: aquatrace -trace"}},
		{name: "unreadable-dump", args: []string{"-trace", "absent.jsonl"}, code: 2, stderr: []string{"aquatrace:", "absent.jsonl"}},
		{name: "garbled-dump", args: []string{"-trace", "garbled.jsonl"}, code: 2, stderr: []string{"aquatrace:", "garbled.jsonl"}},
		{name: "unreadable-metrics", args: []string{"-trace", spans, "-metrics", "absent.json"}, code: 2,
			stderr: []string{"aquatrace:", "absent.json"}},
		{name: "garbled-metrics", args: []string{"-trace", spans, "-metrics", "garbled.jsonl"}, code: 2,
			stderr: []string{"aquatrace:", "garbled.jsonl"}},
		{name: "unwritable-json", args: []string{"-trace", spans, "-json", "garbled.jsonl/out.json"}, code: 2,
			stderr: []string{"aquatrace:", "out.json"}},
		{name: "good-dump", args: []string{"-trace", spans, "-metrics", filepath.Join(dumpDir, "metrics.json")}, code: 0,
			stdout: []string{"chain3"}},
		{name: "attribution-miss", args: []string{"-trace", "uncovered.jsonl"}, code: 1, stdout: []string{"max attribution error: 100%"},
			stderr: []string{"exceeds the 1% bound"}},
		{name: "audit", args: []string{"-trace", spans, "-audit"}, code: 0, stdout: []string{"pool.decision"}},
	} {
		t.Run(r.name, func(t *testing.T) {
			code, stdout, stderr := run(t, dir, r.args...)
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
		})
	}
}

// TestJSONSummaryDeterministic: the analysis is a pure function of the
// dump — two runs are byte-equal, as text and as the -json summary, and the
// summary a -json path receives is the one `-json -` prints.
func TestJSONSummaryDeterministic(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-trace", filepath.Join(dumpDir, "spans.jsonl"), "-metrics", filepath.Join(dumpDir, "metrics.json")}

	code, text, stderr := run(t, dir, append(args, "-json", "out.json")...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if _, again, _ := run(t, dir, args...); again != text {
		t.Error("two text reports of one dump differ")
	}
	file, err := os.ReadFile(filepath.Join(dir, "out.json"))
	if err != nil {
		t.Fatal(err)
	}
	var summary map[string]any
	if err := json.Unmarshal(file, &summary); err != nil {
		t.Fatalf("-json file is not a JSON object: %v\n%s", err, file)
	}
	if len(summary) == 0 {
		t.Error("-json summary is empty")
	}

	_, first, _ := run(t, dir, append(args, "-json", "-")...)
	_, second, _ := run(t, dir, append(args, "-json", "-")...)
	if first != second {
		t.Error("two `-json -` runs of one dump differ")
	}
	if first != text+string(file) {
		t.Error("`-json -` stdout is not the text report followed by the summary -json writes to a file")
	}
}
