package sched

import "aquatope/internal/checkpoint"

// Snapshot serializes the decision-overhead meter — the registry wrapper's
// only mutable state.
func (m *Meter) Snapshot(enc *checkpoint.Encoder) {
	enc.String("sched.meter")
	enc.Int(m.PoolDecisions)
	enc.F64(m.PoolEvals)
	enc.Int(m.ConfigDecisions)
	enc.F64(m.ConfigProfiles)
}
