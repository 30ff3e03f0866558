package serve

import (
	"bytes"
	"errors"
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

// TestStoppedRunFinalCheckpointRestores covers the SIGINT path: a stop
// mid-stream flushes a mid-interval final checkpoint; restoring from it
// verifies at journal exhaustion and the resumed run converges to the
// uninterrupted reference byte for byte.
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
