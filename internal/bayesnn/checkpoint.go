package bayesnn

import (
	"aquatope/internal/checkpoint"
	"aquatope/internal/nn"
)

// allParams returns every trainable parameter in a fixed architecture
// order. Snapshot iterates this list, so the order is part of the snapshot
// format.
func (m *Model) allParams() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, m.encoder.Params()...)
	ps = append(ps, m.bridgeH.Params()...)
	ps = append(ps, m.decoder.Params()...)
	ps = append(ps, m.decOut.Params()...)
	ps = append(ps, m.pred.Params()...)
	return ps
}

// Snapshot serializes the model completely: RNG position (MC-dropout masks
// draw from it, so the stream offset is state), every weight tensor, and
// the standardization/uncertainty scalars fitted by Train. The scratch
// buffers are excluded — they are fully overwritten before each use.
func (m *Model) Snapshot(enc *checkpoint.Encoder) {
	enc.String("bayesnn")
	m.rng.Snapshot(enc)
	nn.SnapshotParams(enc, m.allParams())
	enc.F64(m.yMean)
	enc.F64(m.yStd)
	enc.F64s(m.extMean)
	enc.F64s(m.extStd)
	enc.F64(m.histMean)
	enc.F64(m.histStd)
	enc.F64(m.residStd)
	enc.F64(m.dispersion)
	enc.Bool(m.trained)
}
