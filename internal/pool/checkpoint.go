package pool

import "aquatope/internal/checkpoint"

// unwrapper is implemented by policy wrappers that add no state of their
// own to the decision.
type unwrapper interface{ Unwrap() Policy }

// SnapshotPolicy serializes a policy's mutable state, keyed by a type tag.
// The BNN-backed Aquatope policy writes its full model; the forecasting
// baselines write their fitted series (the fit is a pure function of the
// series). A policy wrapped for accounting (sched's meter) is written as
// the policy it wraps, so the bytes do not depend on whether a meter is
// attached. Policy types this package does not know serialize as an opaque
// name-only tag.
func SnapshotPolicy(enc *checkpoint.Encoder, p Policy) {
	if w, ok := p.(unwrapper); ok {
		p = w.Unwrap()
	}
	switch p := p.(type) {
	case *FixedKeepAlive:
		enc.String("keepalive")
	case *Autoscale:
		enc.String("autoscale")
		enc.F64(p.prev)
	case *Histogram:
		enc.String("histogram")
		enc.F64s(p.gaps)
	case *FaaSCache:
		enc.String("faascache")
		enc.F64(p.auto.prev)
	case *IceBreaker:
		enc.String("icebreaker")
		enc.F64s(p.fitted)
	case *Aquatope:
		enc.String("aquatope")
		enc.Int(p.offset)
		enc.Bool(p.model != nil)
		if p.model != nil {
			p.model.Snapshot(enc)
		}
	default:
		enc.String("opaque:" + p.Name())
	}
}

// Snapshot serializes the manager: per-function demand histories, applied
// targets, watermarks, the Guard degraded-mode state machine, and each
// policy's state. The sampling/tick events live in the simulation queue and
// are replay-derived.
func (m *Manager) Snapshot(enc *checkpoint.Encoder) {
	enc.String("pool.manager")
	enc.F64(IntervalSec)
	enc.Int(samplesPerInterval)
	enc.F64(m.ApplyAfter)
	enc.F64(rewarmDelaySec)
	enc.Bool(m.started)
	enc.Bool(m.degraded)
	enc.Int(m.cleanTicks)
	enc.Int(m.lastShed)
	enc.U64(uint64(len(m.entries)))
	for _, e := range m.entries {
		enc.String(e.fn)
		enc.F64s(e.history)
		enc.Int(0) // retired history offset: history starts at t = 0
		enc.F64(e.watermark)
		enc.Int(e.lastTarget)
		SnapshotPolicy(enc, e.policy)
	}
}
