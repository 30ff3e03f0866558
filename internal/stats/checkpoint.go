package stats

import "aquatope/internal/checkpoint"

// Snapshot serializes the generator as (seed, draw count). Read-only.
func (g *RNG) Snapshot(enc *checkpoint.Encoder) {
	enc.String("rng")
	enc.I64(g.seed)
	enc.U64(g.src.n)
}
