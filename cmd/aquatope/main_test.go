package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aquatope/internal/sched"
)

// binary is the aquatope command built once for the whole test binary.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "aquatope-test")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "aquatope")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		panic("building aquatope: " + err.Error() + "\n" + string(out))
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
		t.Fatalf("running aquatope %v: %v", args, err)
	}
	return 0, so.String(), se.String()
}

// TestFlagsAndExitCodes: flags → exit code and what the user is told.
func TestFlagsAndExitCodes(t *testing.T) {
	tiny := []string{"-app", "chain", "-minutes", "6", "-train", "2", "-budget", "2"}
	type row struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings
		stderr []string
	}
	rows := []row{
		{name: "unknown-system", args: append([]string{"-system", "nope"}, tiny...), code: 2,
			stderr: append([]string{`unknown system "nope"`}, sched.Names()...)},
		{name: "unknown-app", args: []string{"-app", "nope"}, code: 2, stderr: []string{`unknown app "nope"`}},
		{name: "serve-without-stream", args: append([]string{"-serve"}, tiny...), code: 2, stderr: []string{"-serve requires -stream"}},
		{name: "removed-scheduler-flag", args: append([]string{"-scheduler", "aquatope"}, tiny...), code: 2,
			stderr: []string{"flag provided but not defined: -scheduler"}},
	}
	for _, name := range sched.Names() {
		rows = append(rows, row{name: "system-" + name, args: append([]string{"-system", name}, tiny...), code: 0,
			stdout: []string{"running chain3 under " + name, "workflows completed:"}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			code, stdout, stderr := run(t, t.TempDir(), r.args...)
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

// TestServeKillRestore drives the crash-safe serving loop through the real
// binary against an uninterrupted reference serve of the same stream and
// flags (the scripted kill left inert by -ignore-crash, which is outside the
// config digest):
//
//   - a run the kill-restore script kills exits 137 and writes no dumps;
//   - every checkpoint it left is byte-equal to the reference run's file of
//     the same name — a checkpoint is a function of the run, so this is the
//     guard that every Snapshot stays deterministic;
//   - no reference checkpoint is over 1 KiB: a section is the SHA-256 of
//     its component snapshot, so a file is a header plus one digest per
//     section at any horizon, and a bigger one means a body has crept back
//     in;
//   - restoring from the killed run's checkpoint directory finishes with
//     exit 0, a verified replay, and span and metric dumps byte-equal to the
//     reference's (DESIGN.md §15's restore-equals-uninterrupted contract).
func TestServeKillRestore(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-app", "chain", "-minutes", "20", "-train", "5", "-budget", "2", "-system", "keepalive", "-seed", "3"}
	if code, _, stderr := run(t, dir, append([]string{"-emit-stream", "stream.jsonl"}, flags...)...); code != 0 {
		t.Fatalf("-emit-stream: exit %d\n%s", code, stderr)
	}
	serve := func(ckDir, dumps string, extra ...string) []string {
		args := append([]string{"-serve", "-stream", "stream.jsonl", "-checkpoint-dir", ckDir, "-chaos", "kill-restore",
			"-trace-out", dumps + "spans.jsonl", "-metrics-out", dumps + "metrics.json"}, extra...)
		return append(args, flags...)
	}
	dumps := []string{"spans.jsonl", "metrics.json"}

	if code, _, stderr := run(t, dir, serve("ref", "ref.", "-ignore-crash")...); code != 0 {
		t.Fatalf("reference run: exit %d, want 0\n%s", code, stderr)
	}
	refCkpts, _ := filepath.Glob(filepath.Join(dir, "ref", "*.aqcp"))
	if len(refCkpts) == 0 {
		t.Fatal("reference run left no checkpoint")
	}
	for _, f := range refCkpts {
		if fi, err := os.Stat(f); err != nil {
			t.Error(err)
		} else if fi.Size() > 1<<10 {
			t.Errorf("reference checkpoint %s is %d bytes, over 1 KiB", filepath.Base(f), fi.Size())
		}
	}

	code, _, stderr := run(t, dir, serve("ck", "")...)
	if code != 137 {
		t.Fatalf("killed run: exit %d, want 137\n%s", code, stderr)
	}
	for _, dump := range dumps {
		if _, err := os.Stat(filepath.Join(dir, dump)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("killed run left %s behind (stat: %v)", dump, err)
		}
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "ck", "checkpoint-*.aqcp"))
	if len(ckpts) == 0 {
		t.Fatal("killed run left no boundary checkpoint")
	}
	for _, f := range ckpts {
		sameFile(t, f, filepath.Join(dir, "ref", filepath.Base(f)))
	}

	code, stdout, stderr := run(t, dir, append([]string{"-restore", "ck"}, serve("ck", "")...)...)
	if code != 0 {
		t.Fatalf("restored run: exit %d, want 0\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "verified replay") || !strings.Contains(stdout, "workflows completed:") {
		t.Errorf("restored run did not report a verified replay and a result:\nstdout: %s\nstderr: %s", stdout, stderr)
	}
	for _, dump := range dumps {
		sameFile(t, filepath.Join(dir, dump), filepath.Join(dir, "ref."+dump))
	}
}

// sameFile fails the test unless the file at got exists and is byte-equal
// to the one at want.
func sameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Error(err)
		return
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Error(err)
		return
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s (%d bytes) differs from %s (%d bytes)", got, len(g), want, len(w))
	}
}

// TestTelemetryAddrPublishesAnalysis: with -telemetry-addr, a batch run and
// a -serve run of the same stream both publish /analysis once the run
// completes, keep /metrics answering, stay up until interrupted, and exit
// 130 on the interrupt.
func TestTelemetryAddrPublishesAnalysis(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-app", "chain", "-minutes", "20", "-train", "5", "-budget", "2", "-system", "keepalive", "-seed", "3"}
	if code, _, stderr := run(t, dir, append([]string{"-emit-stream", "stream.jsonl"}, flags...)...); code != 0 {
		t.Fatalf("-emit-stream: exit %d\n%s", code, stderr)
	}
	rows := []struct {
		name string
		args []string
	}{
		{name: "batch"},
		{name: "serve", args: []string{"-serve", "-stream", "stream.jsonl", "-checkpoint-dir", "ck"}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			args := append(append([]string{"-telemetry-addr", "127.0.0.1:0"}, r.args...), flags...)
			cmd := exec.Command(binary, args...)
			cmd.Dir = dir
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			exited := make(chan struct{})
			t.Cleanup(func() {
				_ = cmd.Process.Kill() // no-op once the process has exited
				<-exited
			})

			var addr string
			sc := bufio.NewScanner(stdout)
			for addr == "" && sc.Scan() {
				if rest, ok := strings.CutPrefix(sc.Text(), "serving telemetry on http://"); ok {
					addr = strings.Fields(rest)[0]
				}
			}
			go func() {
				_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained
				_ = cmd.Wait()                     // the exit code is read from cmd.ProcessState
				close(exited)
			}()
			if addr == "" {
				<-exited
				t.Fatalf("no telemetry address printed\nstderr: %s", stderr.String())
			}

			get := func(path string) (int, []byte) {
				resp, err := http.Get("http://" + addr + path)
				if err != nil {
					return 0, nil
				}
				defer resp.Body.Close() //aqualint:allow droppederr read-only response body
				body, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, body
			}
			timeout := time.After(60 * time.Second) //aqualint:allow wallclock bounds the wait on a real child process
			for {
				code, body := get("/analysis")
				if code == http.StatusOK {
					var a map[string]any
					if err := json.Unmarshal(body, &a); err != nil {
						t.Fatalf("/analysis is not JSON: %v\n%s", err, body)
					}
					break
				}
				select {
				case <-exited:
					t.Fatalf("exited %d before /analysis was published\nstderr: %s",
						cmd.ProcessState.ExitCode(), stderr.String())
				case <-timeout:
					t.Fatalf("/analysis still %d after 60 s", code)
				case <-time.After(50 * time.Millisecond): //aqualint:allow wallclock poll interval against a real HTTP server
				}
			}
			if code, _ := get("/metrics"); code != http.StatusOK {
				t.Fatalf("/metrics answered %d", code)
			}

			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			select {
			case <-exited:
			case <-time.After(30 * time.Second): //aqualint:allow wallclock bounds the wait on a real child process
				t.Fatal("still running 30 s after SIGINT")
			}
			if code := cmd.ProcessState.ExitCode(); code != 130 {
				t.Fatalf("exit %d after SIGINT, want 130\nstderr: %s", code, stderr.String())
			}
		})
	}
}
