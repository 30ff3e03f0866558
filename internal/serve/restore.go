package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
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
// the checkpoint (enforced via the embedded config digest). The steps:
//
//  1. Read and validate the checkpoint container (CRC-guarded) and check
//     its header's config digest and seed against opts.
//  2. Truncate the journal's torn tail and prove the checkpoint's journal
//     prefix (offset + SHA-256) survives in it.
//  3. Build a fresh server from opts — re-running the resource search and
//     re-scheduling the training fit — and replay the entire durable
//     journal through the normal ingest loop.
//  4. At the checkpointed boundary, compare the header's clock, record
//     count and last arrival time with the replay's, and the digest of
//     every re-derived component snapshot with the stored section; any
//     divergence is a hard error.
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
	recs, data, err := LoadJournal(journalPath)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) < h.JournalOff {
		return nil, fmt.Errorf("serve: restore: journal holds %d durable bytes, checkpoint covers %d",
			len(data), h.JournalOff)
	}
	sum := sha256.Sum256(data[:h.JournalOff])
	if !bytes.Equal(sum[:], h.JournalSHA) {
		return nil, fmt.Errorf("serve: restore: journal prefix hash mismatch — journal is not the one the checkpoint was cut against")
	}
	if len(recs) < h.Ingested {
		return nil, fmt.Errorf("serve: restore: journal holds %d records, checkpoint covers %d", len(recs), h.Ingested)
	}

	// Rebuild and replay. New would truncate the journal; construct with
	// journaling deferred, then re-open it in append mode afterwards.
	replayOpts := opts
	replayOpts.CheckpointDir = ""
	s, err := New(replayOpts)
	if err != nil {
		return nil, err
	}
	s.opts = opts
	s.replaying = true
	s.verifyFile = f
	// A final checkpoint is cut mid-interval (after extra ingests beyond
	// boundary K), so it verifies at journal exhaustion; boundary
	// checkpoints verify the moment replay crosses boundary K.
	s.verifyAtK = h.K
	if h.Final {
		s.verifyAtK = -1
	}

	src := NewSource(bytes.NewReader(data))
	if err := s.consume(src); err != nil {
		return nil, fmt.Errorf("serve: restore: replaying journal: %w", err)
	}
	// A stopped-run final checkpoint is cut mid-interval: it verifies at
	// journal exhaustion, not at a boundary.
	if h.Final && !s.verified {
		if err := s.verifyAgainst(f); err != nil {
			return nil, err
		}
		s.verified = true
	}
	// A boundary checkpoint whose triggering record was lost with the torn
	// tail: the original advanced to boundary K on a record the journal no
	// longer holds. Advancing without it reproduces the same state — the
	// checkpoint predates that record's ingest.
	for !s.verified && s.k < h.K {
		if err := s.advance(); err != nil {
			return nil, err
		}
	}
	if !s.verified {
		return nil, fmt.Errorf("serve: restore: replay of %d records never reached boundary %d (journal too short?)",
			s.ingested, h.K)
	}
	if s.ingested != len(recs) {
		return nil, fmt.Errorf("serve: restore: replay consumed %d of %d journal records", s.ingested, len(recs))
	}
	s.replaying = false
	s.verifyFile = nil

	j, err := OpenJournalAppend(journalPath)
	if err != nil {
		return nil, err
	}
	s.journal = j
	return s, nil
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
