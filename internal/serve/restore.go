package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aquatope/internal/checkpoint"
)

// header is the decoded serve-specific checkpoint header.
type header struct {
	Final      bool
	Seed       int64
	Digest     string
	Now        float64
	K          int
	Ingested   int
	LastT      float64
	JournalOff int64
	JournalSHA []byte
}

// encode appends the header as assemble stores it; decodeHeader reads it
// back.
func (h *header) encode(enc *checkpoint.Encoder) {
	enc.String("serve.header")
	enc.Bool(h.Final)
	enc.I64(h.Seed)
	enc.String(h.Digest)
	enc.F64(h.Now)
	enc.Int(h.K)
	enc.Int(h.Ingested)
	enc.F64(h.LastT)
	enc.I64(h.JournalOff)
	enc.Blob(h.JournalSHA)
}

func decodeHeader(data []byte) (header, error) {
	d := checkpoint.NewDecoder(data)
	var h header
	d.Expect("serve.header")
	h.Final = d.Bool()
	h.Seed = d.I64()
	h.Digest = d.String()
	h.Now = d.F64()
	h.K = d.Int()
	h.Ingested = d.Int()
	h.LastT = d.F64()
	h.JournalOff = d.I64()
	h.JournalSHA = d.Blob()
	if err := d.Done(); err != nil {
		return header{}, fmt.Errorf("serve: checkpoint header: %w", err)
	}
	if h.K < 0 || h.Ingested < 0 || h.JournalOff < 0 {
		return header{}, fmt.Errorf("serve: checkpoint header: %w: negative boundary %d, record count %d or journal offset %d",
			checkpoint.ErrCorrupt, h.K, h.Ingested, h.JournalOff)
	}
	return h, nil
}

// LatestCheckpoint resolves a -restore argument: a checkpoint file is used
// as-is; a directory resolves to checkpoint-final.aqcp when present, else
// the highest-numbered boundary checkpoint.
func LatestCheckpoint(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", fmt.Errorf("serve: restore: %w", err)
	}
	if !fi.IsDir() {
		return path, nil
	}
	if p := filepath.Join(path, "checkpoint-final.aqcp"); fileExists(p) {
		return p, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return "", fmt.Errorf("serve: restore: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "checkpoint-") && strings.HasSuffix(n, ".aqcp") {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("serve: restore: no checkpoints in %s", path)
	}
	// Zero-padded boundary indices sort lexically.
	sort.Strings(names)
	return filepath.Join(path, names[len(names)-1]), nil
}

func fileExists(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && !fi.IsDir()
}

// Restore rebuilds a server from a checkpoint by verified deterministic
// replay. opts must be bit-identical to the options of the run that cut
// the checkpoint (enforced via the embedded config digest). It runs one
// sequence:
//
//  1. Read and validate the checkpoint container (CRC-guarded), check its
//     header's config digest and seed against opts, truncate the journal's
//     torn tail, and prove that the journal prefix the checkpoint covers
//     (offset + SHA-256) survives in it and ends at a record boundary.
//  2. Build a fresh server from opts without a journal, re-running the
//     resource search and re-scheduling the training fit. A server without
//     a journal writes nothing, so it is the replay.
//  3. Replay the covered prefix through the normal ingest loop, then
//     advance to the checkpoint's boundary K, never past the horizon; the
//     record that triggered boundary K may have been lost with the torn
//     tail. A header clock past the horizon marks a completed run, which
//     is drained as Run drained it.
//  4. Compare the header's clock, record count and last arrival time with
//     the replay's, and the digest of every re-derived component snapshot
//     with the stored section. Any divergence is a hard error.
//  5. Replay the rest of the journal and reopen it for appending.
//
// The returned server has consumed Ingested() records; resume by skipping
// that many records on the live source and calling Run. Restored servers
// never arm the crash hook: a scripted KindCrash that killed the original
// run fires inert on the replay and the resumed tail.
func Restore(opts Options, checkpointPath string) (*Server, error) {
	if opts.CheckpointDir == "" {
		return nil, fmt.Errorf("serve: restore requires CheckpointDir")
	}
	opts.ArmCrash = false
	f, err := checkpoint.ReadFile(checkpointPath)
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(f.Header)
	if err != nil {
		return nil, err
	}
	if h.Digest != opts.Digest() {
		return nil, fmt.Errorf("serve: restore: config digest mismatch: checkpoint %.12s.. vs options %.12s.. — the restored run must use the exact options of the original",
			h.Digest, opts.Digest())
	}
	// The digest covers the seed, so only a forged header gets here with
	// another one.
	if h.Seed != opts.Seed {
		return nil, fmt.Errorf("serve: restore: %w: header Seed %d, options seed %d", checkpoint.ErrCorrupt, h.Seed, opts.Seed)
	}

	journalPath := filepath.Join(opts.CheckpointDir, "stream.jsonl")
	_, data, err := LoadJournal(journalPath)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) < h.JournalOff {
		return nil, fmt.Errorf("serve: restore: journal holds %d durable bytes, checkpoint covers %d",
			len(data), h.JournalOff)
	}
	covered := data[:h.JournalOff]
	if n := len(covered); n > 0 && covered[n-1] != '\n' {
		return nil, fmt.Errorf("serve: restore: %w: header JournalOff %d ends inside a journal record", checkpoint.ErrCorrupt, h.JournalOff)
	}
	sum := sha256.Sum256(covered)
	if !bytes.Equal(sum[:], h.JournalSHA) {
		return nil, fmt.Errorf("serve: restore: journal prefix hash mismatch — journal is not the one the checkpoint was cut against")
	}

	replayOpts := opts
	replayOpts.CheckpointDir, replayOpts.Pace = "", 0
	s, err := New(replayOpts)
	if err != nil {
		return nil, err
	}
	if err := s.consume(NewSource(bytes.NewReader(covered))); err != nil {
		return nil, fmt.Errorf("serve: restore: replaying journal: %w", err)
	}
	for s.k < h.K && s.nextBoundary <= s.horizon {
		if err := s.advance(); err != nil {
			return nil, err
		}
	}
	if s.k != h.K {
		return nil, fmt.Errorf("serve: restore: %w: header K %d, replay of the covered journal reaches boundary %d", checkpoint.ErrCorrupt, h.K, s.k)
	}
	if h.Now > s.horizon {
		s.ctl.Finish()
	}
	if err := s.verifyAgainst(h, f); err != nil {
		return nil, err
	}
	if err := s.consume(NewSource(bytes.NewReader(data[h.JournalOff:]))); err != nil {
		return nil, fmt.Errorf("serve: restore: replaying journal: %w", err)
	}

	j, err := OpenJournalAppend(journalPath)
	if err != nil {
		return nil, err
	}
	s.opts, s.journal = opts, j
	return s, nil
}

// verifyAgainst compares the replayed server with the checkpoint: the
// header's clock, record count and last arrival time with the replay's, then
// the digests of the re-derived component snapshots with the stored
// sections — the restore-equals-uninterrupted contract made operational.
// Any mismatch means the replay environment diverged from the run that cut
// the checkpoint (or the header was forged), and continuing would silently
// fork history, so it is a hard error.
func (s *Server) verifyAgainst(h header, want *checkpoint.File) error {
	if now := s.ctl.Engine().Now(); math.Float64bits(h.Now) != math.Float64bits(now) {
		return fmt.Errorf("serve: restore verification: %w: header Now %v, replayed clock %v", checkpoint.ErrCorrupt, h.Now, now)
	}
	if math.Float64bits(h.LastT) != math.Float64bits(s.lastT) {
		return fmt.Errorf("serve: restore verification: %w: header LastT %v, replayed last arrival %v", checkpoint.ErrCorrupt, h.LastT, s.lastT)
	}
	if h.Ingested != s.ingested {
		return fmt.Errorf("serve: restore verification: %w: header Ingested %d, replayed %d records", checkpoint.ErrCorrupt, h.Ingested, s.ingested)
	}
	got := s.assemble(false)
	if len(got.Sections) != len(want.Sections) {
		return fmt.Errorf("serve: restore verification: %d sections re-derived, checkpoint has %d",
			len(got.Sections), len(want.Sections))
	}
	for i, w := range want.Sections {
		g := got.Sections[i]
		if g.Name != w.Name {
			return fmt.Errorf("serve: restore verification: section %d is %q, checkpoint has %q", i, g.Name, w.Name)
		}
		if !bytes.Equal(g.Data, w.Data) {
			return fmt.Errorf("serve: restore verification: section %q diverged after replay (replayed sha256 %.6x..; checkpoint %.6x..)",
				w.Name, g.Data, w.Data)
		}
	}
	return nil
}

// ResumeSource opens the original stream for a restored server, skipping
// the prefix the journal already replayed.
func (s *Server) ResumeSource(r io.Reader) (*Source, error) {
	src := NewSource(r)
	if err := src.Skip(s.ingested); err != nil {
		return nil, err
	}
	return src, nil
}
