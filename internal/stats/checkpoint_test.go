package stats

import (
	"math"
	"testing"

	"aquatope/internal/checkpoint"
)

// drawMix exercises every sampler class (uniform, rejection-looped, normal
// ziggurat) so the draw counter is proven to capture multi-draw samplers.
func drawMix(g *RNG, n int) []float64 {
	out := make([]float64, 0, 4*n)
	for i := 0; i < n; i++ {
		out = append(out, g.Float64())
		out = append(out, g.Normal(1, 2))
		out = append(out, g.Exponential(0.5))
		out = append(out, float64(g.Poisson(3)), float64(g.Intn(17)))
		out = append(out, g.Uniform(1, 1.5), g.LogNormal(0, 1))
	}
	return out
}

func TestPosSkipReconstruct(t *testing.T) {
	ref := NewRNG(7)
	drawMix(ref, 20)
	seed, draws := ref.Pos()
	if seed != 7 || draws == 0 {
		t.Fatalf("pos: seed=%d draws=%d", seed, draws)
	}
	clone := NewRNG(seed)
	for i := uint64(0); i < draws; i++ {
		clone.Int63()
	}
	for i := 0; i < 100; i++ {
		if a, b := ref.Int63(), clone.Int63(); a != b {
			t.Fatalf("draw %d diverged: %d != %d", i, a, b)
		}
	}
}

func TestSnapshotIsReadOnly(t *testing.T) {
	a := NewRNG(3)
	b := NewRNG(3)
	drawMix(a, 10)
	drawMix(b, 10)
	a.Snapshot(checkpoint.NewEncoder())
	for i := 0; i < 50; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("snapshot perturbed the stream at draw %d", i)
		}
	}
}

// TestReseedMatchesFresh: a generator reseeded in place, whatever it drew
// before, draws the stream NewRNG(seed) draws, reports the same position
// and snapshots the same bytes — and SnapshotFresh writes those bytes for a
// generator that was never built.
func TestReseedMatchesFresh(t *testing.T) {
	g := NewRNG(1)
	for seed := int64(-3); seed < 40; seed++ {
		drawMix(g, int(seed&7)+1)
		g.Reseed(seed)
		fresh := NewRNG(seed)
		if s, n := g.Pos(); s != seed || n != 0 {
			t.Fatalf("seed %d: Pos after Reseed = (%d, %d), want (%d, 0)", seed, s, n, seed)
		}
		a, b := checkpoint.NewEncoder(), checkpoint.NewEncoder()
		g.Snapshot(a)
		SnapshotFresh(b, seed)
		if string(a.Bytes()) != string(b.Bytes()) {
			t.Fatalf("seed %d: reseeded snapshot %x, SnapshotFresh %x", seed, a.Bytes(), b.Bytes())
		}
		b.Reset()
		fresh.Snapshot(b)
		if string(a.Bytes()) != string(b.Bytes()) {
			t.Fatalf("seed %d: reseeded snapshot %x, fresh generator's %x", seed, a.Bytes(), b.Bytes())
		}
		got, want := drawMix(g, 15), drawMix(fresh, 15)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: draw %d = %v, fresh generator %v", seed, i, got[i], want[i])
			}
		}
		if gs, gn := g.Pos(); gs != seed || gn != fresh.src.n {
			t.Fatalf("seed %d: Pos after draws (%d, %d), fresh (%d, %d)", seed, gs, gn, seed, fresh.src.n)
		}
	}
}
