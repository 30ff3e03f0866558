package sim

import (
	"sort"

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
	pend := append([]entry(nil), e.queue...)
	sort.Slice(pend, func(i, j int) bool { return pend[i].before(pend[j]) })
	enc.U64(uint64(len(pend)))
	for _, x := range pend {
		enc.F64(x.at)
		enc.U64(x.seq)
		enc.Bool(x.ev.fn == nil)
	}
}
