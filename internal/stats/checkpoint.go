package stats

import "aquatope/internal/checkpoint"

// Snapshot serializes the generator as (seed, draw count). Read-only.
func (g *RNG) Snapshot(enc *checkpoint.Encoder) { snapshotPos(enc, g.seed, g.src.n) }

// SnapshotFresh writes the bytes Snapshot writes for NewRNG(seed) before
// its first draw, without building the generator: a component that creates
// a stream only when it first draws from it snapshots the unbuilt stream
// with it.
func SnapshotFresh(enc *checkpoint.Encoder, seed int64) { snapshotPos(enc, seed, 0) }

func snapshotPos(enc *checkpoint.Encoder, seed int64, draws uint64) {
	enc.String("rng")
	enc.I64(seed)
	enc.U64(draws)
}
