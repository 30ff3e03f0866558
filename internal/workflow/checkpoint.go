package workflow

import "aquatope/internal/checkpoint"

// Snapshot serializes the executor's mutable state: the retry-jitter RNG
// stream, including whether its lazy initialization has happened (an
// initialized-at-zero-draws stream and an uninitialized one are different
// states only in object identity, but capturing the flag keeps the digest
// an exact structural fingerprint). In-flight workflow state machines hold
// completion closures and are replay-derived.
func (e *Executor) Snapshot(enc *checkpoint.Encoder) {
	enc.String("workflow.executor")
	enc.I64(e.Seed)
	enc.Bool(e.rng != nil)
	if e.rng != nil {
		e.rng.Snapshot(enc)
	}
}
