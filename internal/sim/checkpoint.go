package sim

import (
	"slices"

	"aquatope/internal/checkpoint"
)

// Snapshot serializes the engine's verifiable state: clock, sequence
// counter, processed-event count, and a digest of the pending queue as the
// sorted (at, seq, canceled) schedule. Event callbacks are closures and
// cannot be serialized — the engine is a replay-derived component: restore
// rebuilds it by re-running the input stream, and this snapshot is the
// fingerprint the restorer byte-compares to prove the rebuilt engine is in
// the identical state (same clock, same event identities in the same order).
func (e *Engine) Snapshot(enc *checkpoint.Encoder) {
	enc.String("sim")
	enc.F64(e.now)
	enc.U64(e.seq)
	enc.U64(e.events)
	enc.Int(e.live)
	// The heap is sorted in a scratch copy the engine keeps, so a boundary
	// allocates nothing once the copy has grown to the queue's size.
	e.snap = append(e.snap[:0], e.queue...)
	slices.SortFunc(e.snap, entry.compare)
	enc.U64(uint64(len(e.snap)))
	for _, x := range e.snap {
		enc.F64(x.at)
		enc.U64(x.seq)
		enc.Bool(x.ev.fn == nil)
	}
	clear(e.snap) // hold no event past the snapshot
}
