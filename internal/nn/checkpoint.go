package nn

import "aquatope/internal/checkpoint"

// Snapshot serializes the parameter's name and weights. Gradients are
// transient (zeroed by every optimizer step, meaningless between training
// phases) and are excluded.
func (p *Param) Snapshot(enc *checkpoint.Encoder) {
	enc.String(p.Name)
	enc.F64s(p.W)
}

// SnapshotParams serializes an ordered parameter list (count-prefixed).
func SnapshotParams(enc *checkpoint.Encoder, params []*Param) {
	enc.U64(uint64(len(params)))
	for _, p := range params {
		p.Snapshot(enc)
	}
}
