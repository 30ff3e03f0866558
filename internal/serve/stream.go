// Package serve is Aquatope's crash-safe live mode: a serving loop that
// decouples virtual time from wall time, ingests workflow arrivals from a
// record stream instead of a pre-synthesized trace, makes the same pool
// and configuration decisions as the batch controller (internal/core), and
// writes an atomic checkpoint at every decision-interval boundary so a
// killed controller can be restored mid-run.
//
// Restore is verified deterministic replay (DESIGN.md §15): a checkpoint
// is a journal position plus a digest of each component's state snapshot.
// Restoring builds a fresh server without a journal from the identical
// configuration, re-ingests the journal prefix the checkpoint covers
// through the normal serving loop — re-running search and training —
// advances to the checkpointed boundary, compares the re-derived snapshots
// with the stored digests once, and then replays the rest of the journal
// before resuming live ingest. A restored run therefore produces
// byte-identical span and metric dumps to an uninterrupted run by
// construction, and the comparison turns any environment drift into a hard
// error instead of silent divergence.
package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Record is one streamed workflow arrival: a virtual timestamp (seconds
// from stream start) and the target application. Records must be
// non-decreasing in T — the stream carries virtual time, so ingest order
// is time order.
type Record struct {
	T   float64 `json:"t"`
	App string  `json:"app"`
}

// MarshalLine renders the record as its canonical JSONL line (no trailing
// newline). encoding/json emits shortest-round-trip floats, so the same
// record always produces the same bytes — the journal hash depends on it.
func (r Record) MarshalLine() ([]byte, error) {
	return json.Marshal(r)
}

// Source reads an arrival stream as JSONL records. Reads block on the
// underlying reader, which is the serving loop's backpressure: a slow
// consumer simply stops draining the pipe or socket.
type Source struct {
	sc   *bufio.Scanner
	line int
}

// NewSource wraps a JSONL stream. Blank lines are skipped.
func NewSource(r io.Reader) *Source {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &Source{sc: sc}
}

// Next returns the next record, or io.EOF at end of stream.
func (s *Source) Next() (Record, error) {
	for s.sc.Scan() {
		s.line++
		line := s.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return Record{}, fmt.Errorf("serve: stream line %d: %w", s.line, err)
		}
		// null, {} and {"t":5} all unmarshal without error into a record
		// that addresses nothing.
		if rec.App == "" {
			return Record{}, fmt.Errorf("serve: stream line %d: record has no app", s.line)
		}
		return rec, nil
	}
	if err := s.sc.Err(); err != nil {
		return Record{}, fmt.Errorf("serve: stream line %d: %w", s.line+1, err)
	}
	return Record{}, io.EOF
}

// Skip discards the next n records — resuming a restored server against
// the original stream skips the prefix the journal already replayed.
func (s *Source) Skip(n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.Next(); err != nil {
			return fmt.Errorf("serve: skipping %d already-journaled records: %w", n, err)
		}
	}
	return nil
}

// WriteStream writes arrivals for one application as a JSONL record
// stream — the recorded-stream format -emit-stream produces and -serve
// consumes (and the journal's on-disk format).
func WriteStream(w io.Writer, app string, arrivals []float64) error {
	bw := bufio.NewWriter(w)
	for _, at := range arrivals {
		line, err := Record{T: at, App: app}.MarshalLine()
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteStreamFile writes the stream to path (truncating).
func WriteStreamFile(path, app string, arrivals []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteStream(f, app, arrivals); err != nil {
		_ = f.Close() //aqualint:allow droppederr best-effort cleanup on an already-failing write path
		return err
	}
	return f.Close()
}
