package serve

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{{T: 0.5, App: "a"}, {T: 1.25, App: "b"}, {T: 1.25, App: "a"}}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	sha := j.PrefixSHA256()
	off := j.Offset()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, data, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) || int64(len(data)) != off {
		t.Fatalf("loaded %d records / %d bytes, want %d / %d", len(got), len(data), len(recs), off)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}

	// Re-seeding via append must continue the same hash stream.
	j2, err := OpenJournalAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.pos.Count() != len(recs) || j2.Offset() != off {
		t.Fatalf("append reopen: count %d offset %d, want %d %d", j2.pos.Count(), j2.Offset(), len(recs), off)
	}
	if !bytes.Equal(j2.PrefixSHA256(), sha) {
		t.Fatal("append reopen: hash stream diverged")
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{T: 1, App: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := j.Offset()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a partial line without newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":2,"app":"tr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, data, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || int64(len(data)) != durable {
		t.Fatalf("torn tail not truncated: %d records, %d bytes", len(recs), len(data))
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != durable {
		t.Fatalf("file not physically truncated: %d bytes, want %d", fi.Size(), durable)
	}
}

// FuzzLoadJournal drives arbitrary bytes through LoadJournal as a journal
// file — restore's input boundary. The contract under fuzz: LoadJournal
// never panics; when it accepts a file it returns the file's
// newline-terminated prefix, the file now holds exactly that prefix (the
// torn tail truncated), so OpenJournalAppend accepts it; and the records
// it returns, appended to a fresh journal, load back unchanged and as the
// same bytes. The committed corpus in testdata/fuzz/FuzzLoadJournal holds
// a valid journal, a torn tail, a file that is all torn tail, an empty
// file, blank and CRLF lines, a bad line mid-file, -0 and huge timestamps
// and odd strings.
func FuzzLoadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, kept, err := LoadJournal(path)
		if err != nil {
			return
		}
		if n := bytes.LastIndexByte(data, '\n') + 1; !bytes.Equal(kept, data[:n]) {
			t.Fatalf("kept %q of %q, want its first %d bytes", kept, data, n)
		}
		if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, kept) {
			t.Fatalf("file holds %q after load (err %v), want %q", onDisk, err, kept)
		}
		j, err := OpenJournalAppend(path)
		if err != nil {
			t.Fatalf("append reopen after load: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		first := writeJournal(t, filepath.Join(dir, "first.jsonl"), recs)
		again, written, err := LoadJournal(first)
		if err != nil {
			t.Fatalf("loading a written journal: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("%d records re-read as %d", len(recs), len(again))
		}
		for i, r := range recs {
			if again[i].App != r.App || math.Float64bits(again[i].T) != math.Float64bits(r.T) {
				t.Fatalf("record %d: %+v re-read as %+v", i, r, again[i])
			}
		}
		second := writeJournal(t, filepath.Join(dir, "second.jsonl"), again)
		if rewritten, err := os.ReadFile(second); err != nil || !bytes.Equal(rewritten, written) {
			t.Fatalf("second write %q (err %v) differs from the first %q", rewritten, err, written)
		}
	})
}

// writeJournal appends recs to a fresh journal at path and returns path.
func writeJournal(t *testing.T, path string, recs []Record) string {
	t.Helper()
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("appending accepted record %+v: %v", r, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStoppedRunFinalCheckpointRestores covers the SIGINT path: a stop
// mid-stream flushes a mid-interval final checkpoint; restoring from it
// verifies once the whole journal it covers is replayed, and the resumed
// run converges to the uninterrupted reference byte for byte.
func TestStoppedRunFinalCheckpointRestores(t *testing.T) {
	recs := fixtureStream(t, 20, 7)

	refOpts := fixtureOpts(t, t.TempDir(), false)
	ref, err := New(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(sourceOf(t, recs)); err != nil {
		t.Fatal(err)
	}
	wantSpans, wantMetrics := dumps(t, refOpts)

	// Stop after a prefix of the stream: drive consume directly with a
	// truncated source — byte-equivalent to a signal landing between two
	// records — then flush the final checkpoint like Run's stop path.
	cut := len(recs) / 3
	dir := t.TempDir()
	stopOpts := fixtureOpts(t, dir, false)
	s, err := New(stopOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.consume(sourceOf(t, recs[:cut])); err != nil {
		t.Fatal(err)
	}
	if err := s.finalStop(); err != nil {
		t.Fatal(err)
	}
	if s.Ingested() != cut {
		t.Fatalf("stopped run ingested %d, want %d", s.Ingested(), cut)
	}

	resumeOpts := fixtureOpts(t, dir, false)
	r, err := Restore(resumeOpts, filepath.Join(dir, "checkpoint-final.aqcp"))
	if err != nil {
		t.Fatalf("restore from final checkpoint: %v", err)
	}
	if r.Ingested() != cut {
		t.Fatalf("restored run replayed %d records, want %d", r.Ingested(), cut)
	}
	src, err := r.ResumeSource(streamReader(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(src); err != nil {
		t.Fatal(err)
	}
	gotSpans, gotMetrics := dumps(t, resumeOpts)
	if !bytes.Equal(gotSpans, wantSpans) {
		t.Error("span dump diverged after stop+restore")
	}
	if !bytes.Equal(gotMetrics, wantMetrics) {
		t.Error("metric dump diverged after stop+restore")
	}
}

// TestCompletedRunFinalCheckpointRestores: a run that served its stream to
// the end leaves a final checkpoint cut after the horizon and the drain.
// Restoring from it and running the resumed source (nothing left to skip
// past) must reproduce the original run's dumps and rewrite a final
// checkpoint byte-equal to the original's.
func TestCompletedRunFinalCheckpointRestores(t *testing.T) {
	recs := fixtureStream(t, 20, 7)
	runDir := t.TempDir()
	runOpts := fixtureOpts(t, runDir, false)
	s, err := New(runOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(sourceOf(t, recs)); err != nil {
		t.Fatal(err)
	}
	wantSpans, wantMetrics := dumps(t, runOpts)

	dir := t.TempDir()
	copyDir(t, runDir, dir)
	opts := fixtureOpts(t, dir, false)
	r, err := Restore(opts, filepath.Join(dir, "checkpoint-final.aqcp"))
	if err != nil {
		t.Fatalf("restore from a completed run's final checkpoint: %v", err)
	}
	src, err := r.ResumeSource(streamReader(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(src); err != nil {
		t.Fatal(err)
	}
	gotSpans, gotMetrics := dumps(t, opts)
	if !bytes.Equal(gotSpans, wantSpans) {
		t.Error("span dump diverged after restoring a completed run")
	}
	if !bytes.Equal(gotMetrics, wantMetrics) {
		t.Error("metric dump diverged after restoring a completed run")
	}
	want, err := os.ReadFile(filepath.Join(runDir, "checkpoint-final.aqcp"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "checkpoint-final.aqcp")); err != nil || !bytes.Equal(got, want) {
		t.Errorf("rewritten final checkpoint differs from the original (%d vs %d bytes, err %v)", len(got), len(want), err)
	}
}

// TestRequestStopReturnsErrStopped wires the whole stop path through Run.
func TestRequestStopReturnsErrStopped(t *testing.T) {
	dir := t.TempDir()
	opts := fixtureOpts(t, dir, false)
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.RequestStop()
	recs := fixtureStream(t, 20, 7)
	if err := s.Run(sourceOf(t, recs)); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint-final.aqcp")); err != nil {
		t.Fatalf("final checkpoint missing after stop: %v", err)
	}
}
