package chaos

import "aquatope/internal/checkpoint"

// Snapshot serializes the injector's mutable state: armed flag and the
// accumulated fault-rate window sums. The scheduled fault events themselves
// live in the simulation queue (closures, replay-derived); the scenario
// script is configuration covered by the serving layer's config digest.
func (in *Injector) Snapshot(enc *checkpoint.Encoder) {
	enc.String("chaos.injector")
	enc.Bool(in.armed)
	enc.F64(in.curRates.InitFailure)
	enc.F64(in.curRates.ExecKill)
}
