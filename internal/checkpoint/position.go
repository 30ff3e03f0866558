package checkpoint

import (
	"crypto/sha256"
	"hash"
)

// Position is where an append-only log stands: how many records it holds
// and the SHA-256 of every byte appended so far. A snapshot encodes a
// history-proportional payload (the arrival journal, the completed-span
// log, the settled-latency list) as its Position instead of its content,
// so a boundary hashes what was appended since the last one rather than
// the whole history: restore re-derives the log by replay, and equal
// positions prove equal logs. The digest is over the plain concatenation
// of the appended bytes — no per-Write framing — so it does not depend on
// how appends were batched between snapshots. The zero value is an empty
// log.
type Position struct {
	n int
	h hash.Hash
}

func (p *Position) hash() hash.Hash {
	if p.h == nil {
		p.h = sha256.New()
	}
	return p.h
}

// Write appends b, which holds records more records.
func (p *Position) Write(b []byte, records int) {
	p.hash().Write(b) //aqualint:allow droppederr hash.Hash Write never returns an error
	p.n += records
}

// Count returns the number of records appended.
func (p *Position) Count() int { return p.n }

// Sum returns the SHA-256 of everything appended so far. It does not
// disturb the running state, so it is cheap at every boundary.
func (p *Position) Sum() []byte { return p.hash().Sum(nil) }

// Snapshot appends the position: record count, then digest.
func (p *Position) Snapshot(enc *Encoder) {
	enc.Int(p.n)
	enc.Blob(p.Sum())
}
