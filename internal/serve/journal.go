package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"aquatope/internal/checkpoint"
)

// Journal is the durable arrival log: every ingested record is appended as
// its canonical JSONL line, and the file is fsynced at each checkpoint
// boundary before the checkpoint that references it is written. A
// checkpoint stores (record count, byte offset, SHA-256 of the byte
// prefix), so restore can prove the journal it replays is the journal the
// checkpoint was cut against.
//
// The journal doubles as a recorded stream: its format is exactly the
// -stream JSONL format, so a journal from one run can drive another.
type Journal struct {
	f   *os.File
	w   *bufio.Writer
	pos checkpoint.Position // records appended and SHA-256 of all durable+buffered bytes
	off int64               // bytes written (including buffered)
}

// CreateJournal opens a fresh (truncated) journal at path.
func CreateJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f)}, nil
}

// OpenJournalAppend reopens an existing journal for appending after its
// torn tail (a partial last line from a crash mid-write) has been
// truncated by LoadJournal. The running hash and counters are re-seeded
// from the surviving content.
func OpenJournalAppend(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	if n := durablePrefix(data); n != len(data) {
		return nil, fmt.Errorf("serve: journal %s: torn tail not truncated before append", path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	j := &Journal{f: f, w: bufio.NewWriter(f), off: int64(len(data))}
	j.pos.Write(data, bytes.Count(data, []byte{'\n'}))
	return j, nil
}

// Append journals one record. The write is buffered; durability is only
// guaranteed after Sync.
func (j *Journal) Append(rec Record) error {
	line, err := rec.MarshalLine()
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	j.pos.Write(line, 1)
	j.off += int64(len(line))
	return nil
}

// Sync flushes buffered records and fsyncs the file.
func (j *Journal) Sync() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("serve: journal flush: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: journal fsync: %w", err)
	}
	return nil
}

// Offset returns the byte length of the journal including buffered writes.
func (j *Journal) Offset() int64 { return j.off }

// PrefixSHA256 returns the SHA-256 of everything appended so far.
func (j *Journal) PrefixSHA256() []byte { return j.pos.Sum() }

// Close flushes and closes the journal (without fsync; call Sync first if
// durability matters).
func (j *Journal) Close() error {
	if err := j.w.Flush(); err != nil {
		_ = j.f.Close() //aqualint:allow droppederr best-effort cleanup on an already-failing flush path
		return err
	}
	return j.f.Close()
}

// durablePrefix returns the length of the newline-terminated prefix of
// data — everything after the last '\n' is a torn tail.
func durablePrefix(data []byte) int {
	i := bytes.LastIndexByte(data, '\n')
	return i + 1
}

// LoadJournal reads the journal at path, truncates any torn tail in place
// (a crash can leave a partial final line; dropping it loses only records
// the referencing checkpoint never covered), and returns the parsed
// records plus the surviving bytes.
func LoadJournal(path string) ([]Record, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: journal: %w", err)
	}
	if n := durablePrefix(data); n != len(data) {
		if err := os.Truncate(path, int64(n)); err != nil {
			return nil, nil, fmt.Errorf("serve: journal: truncating torn tail: %w", err)
		}
		data = data[:n]
	}
	var recs []Record
	src := NewSource(bytes.NewReader(data))
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("serve: journal %s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, data, nil
}
