package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"aquatope/internal/checkpoint"
	"aquatope/internal/sched"
	"aquatope/internal/serve"
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

// killRestoreFlags are the run flags of the kill-restore tests; -chaos
// kill-restore arms the scripted controller kill.
var killRestoreFlags = []string{"-app", "chain", "-minutes", "20", "-train", "5", "-budget", "2",
	"-system", "keepalive", "-seed", "3", "-chaos", "kill-restore"}

// dumps are the files a serve run writes under its dump prefix.
var dumps = []string{"spans.jsonl", "metrics.json"}

// serveArgs is the -serve command line over stream.jsonl with checkpoints
// in ckDir and dumps under the prefix.
func serveArgs(ckDir, prefix string, extra ...string) []string {
	args := append([]string{"-serve", "-stream", "stream.jsonl", "-checkpoint-dir", ckDir,
		"-trace-out", prefix + "spans.jsonl", "-metrics-out", prefix + "metrics.json"}, extra...)
	return append(args, killRestoreFlags...)
}

// crash records stream.jsonl in dir and serves it twice: once as the
// uninterrupted reference (the scripted kill left inert by -ignore-crash,
// which is outside the config digest; checkpoints in ref/, dumps under
// "ref."), and once with the kill armed, which must exit 137 and leave its
// journal and checkpoints in ck/.
func crash(t *testing.T, dir string) {
	t.Helper()
	if code, _, stderr := run(t, dir, append([]string{"-emit-stream", "stream.jsonl"}, killRestoreFlags...)...); code != 0 {
		t.Fatalf("-emit-stream: exit %d\n%s", code, stderr)
	}
	if code, _, stderr := run(t, dir, serveArgs("ref", "ref.", "-ignore-crash")...); code != 0 {
		t.Fatalf("reference run: exit %d, want 0\n%s", code, stderr)
	}
	if code, _, stderr := run(t, dir, serveArgs("ck", "")...); code != 137 {
		t.Fatalf("killed run: exit %d, want 137\n%s", code, stderr)
	}
}

// verifiedReplay matches the line aquatope prints once serve.Restore has
// returned a verified replay.
var verifiedReplay = regexp.MustCompile(`verified replay of \d+ records through boundary \d+`)

// restoreArgs is the command line that restores the run in ck/ with dumps
// under no prefix.
func restoreArgs(extra ...string) []string {
	return append([]string{"-restore", "ck"}, serveArgs("ck", "", extra...)...)
}

// restore runs restoreArgs in dir and fails the test unless it reports a
// verified replay and a result.
func restore(t *testing.T, dir string, extra ...string) {
	t.Helper()
	code, stdout, stderr := run(t, dir, restoreArgs(extra...)...)
	if code != 0 {
		t.Fatalf("restored run: exit %d, want 0\n%s", code, stderr)
	}
	if !verifiedReplay.MatchString(stderr) || !strings.Contains(stdout, "workflows completed:") {
		t.Errorf("restored run did not report a verified replay and a result:\nstdout: %s\nstderr: %s", stdout, stderr)
	}
}

// TestServeKillRestore drives the crash-safe serving loop through the real
// binary against an uninterrupted reference serve of the same stream and
// flags:
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
	crash(t, dir)
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

	restore(t, dir)
	for _, dump := range dumps {
		sameFile(t, filepath.Join(dir, dump), filepath.Join(dir, "ref."+dump))
	}
}

// TestRestoreCompletedRun: the checkpoint directory of a run that served
// its stream to the end restores too. The resumed run has nothing left to
// ingest; it must exit 0 with dumps byte-equal to the original run's and
// rewrite checkpoint-final.aqcp byte for byte.
func TestRestoreCompletedRun(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := run(t, dir, append([]string{"-emit-stream", "stream.jsonl"}, killRestoreFlags...)...); code != 0 {
		t.Fatalf("-emit-stream: exit %d\n%s", code, stderr)
	}
	if code, _, stderr := run(t, dir, serveArgs("ck", "ref.", "-ignore-crash")...); code != 0 {
		t.Fatalf("served run: exit %d, want 0\n%s", code, stderr)
	}
	final := filepath.Join(dir, "ck", "checkpoint-final.aqcp")
	copyFile(t, final, filepath.Join(dir, "final.aqcp"))
	restore(t, dir, "-ignore-crash")
	for _, dump := range dumps {
		sameFile(t, filepath.Join(dir, dump), filepath.Join(dir, "ref."+dump))
	}
	sameFile(t, final, filepath.Join(dir, "final.aqcp"))
}

// crashFixture is a killed run's durable state, cut once by an earlier
// build: stream.jsonl (the recorded stream), ck/ (the journal and
// checkpoints the kill left) and dumps.sha256 (the SHA-256 of each dump of
// the uninterrupted reference run).
var crashFixture = filepath.Join("testdata", "kill-restore")

// TestRestoreCommittedCrash restores a temp copy of crashFixture with the
// current build and compares the resumed run's dumps with the reference's
// digests. It fails when a change moves the config digest, the checkpoint
// format or the run itself, any of which would strand a run that an older
// build left crashed. UPDATE_GOLDEN=1 re-cuts the fixture first. A second
// copy whose latest checkpoint has one section digest flipped must be
// refused: exit 1, naming the section, and no verified-replay line.
func TestRestoreCommittedCrash(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		src := t.TempDir()
		crash(t, src)
		if err := os.RemoveAll(crashFixture); err != nil {
			t.Fatal(err)
		}
		copyTree(t, filepath.Join(src, "ck"), filepath.Join(crashFixture, "ck"))
		copyFile(t, filepath.Join(src, "stream.jsonl"), filepath.Join(crashFixture, "stream.jsonl"))
		if err := os.WriteFile(filepath.Join(crashFixture, "dumps.sha256"), []byte(dumpDigests(t, src, "ref.")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	copyTree(t, crashFixture, dir)
	restore(t, dir)
	want, err := os.ReadFile(filepath.Join(dir, "dumps.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpDigests(t, dir, ""); got != string(want) {
		t.Errorf("restored dumps differ from the reference run's (UPDATE_GOLDEN=1 re-cuts the fixture):\ngot:\n%swant:\n%s", got, want)
	}

	t.Run("section-flipped", func(t *testing.T) {
		dir := t.TempDir()
		copyTree(t, crashFixture, dir)
		latest, err := serve.LatestCheckpoint(filepath.Join(dir, "ck"))
		if err != nil {
			t.Fatal(err)
		}
		f, err := checkpoint.ReadFile(latest)
		if err != nil {
			t.Fatal(err)
		}
		f.Sections[0].Data[0] ^= 0x01
		if err := checkpoint.WriteFile(latest, f); err != nil {
			t.Fatal(err)
		}
		code, _, stderr := run(t, dir, restoreArgs()...)
		if code != 1 || verifiedReplay.MatchString(stderr) || !strings.Contains(stderr, "section "+strconv.Quote(f.Sections[0].Name)+" diverged") {
			t.Errorf("restore of a flipped section digest: exit %d, want 1 naming the section and no verified replay\n%s", code, stderr)
		}
	})
}

// dumpDigests returns one sha256sum line per dump under prefix in dir,
// named without the prefix.
func dumpDigests(t *testing.T, dir, prefix string) string {
	t.Helper()
	var b strings.Builder
	for _, dump := range dumps {
		data, err := os.ReadFile(filepath.Join(dir, prefix+dump))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(data), dump)
	}
	return b.String()
}

// copyTree copies the regular files under src to the same paths under dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		copyFile(t, path, filepath.Join(dst, rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// copyFile copies the file at src to dst, making dst's directory.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(dst), 0o755)
	}
	if err == nil {
		err = os.WriteFile(dst, data, 0o644)
	}
	if err != nil {
		t.Fatal(err)
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
