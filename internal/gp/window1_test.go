package gp

import (
	"math"
	"testing"

	"aquatope/internal/stats"
)

// TestWindow1IncrementalMatchesColdProperty is the window-size-1 companion
// of TestIncrementalMatchesColdProperty: with capacity 1 every Observe on a
// full window evicts to empty and extends from an empty factor, the edge
// where a stale jitter level can silently diverge from the cold path. 200+
// randomized sequences of observe/forget/refit must stay bitwise on the
// cold trajectory.
func TestWindow1IncrementalMatchesColdProperty(t *testing.T) {
	rng := stats.NewRNG(97)
	const dim = 2
	g := New(NewMatern52(dim), 0.01)
	g.SetWindow(1)
	probe := []float64{0.3, 0.7}
	steps, checks := 0, 0
	for steps < 240 || checks < 200 {
		op := rng.Float64()
		switch {
		case op < 0.7 || len(g.x) == 0:
			x := []float64{rng.Float64(), rng.Float64()}
			if err := g.Observe(x, math.Cos(3*x[0])+rng.Normal(0, 0.1)); err != nil {
				t.Fatalf("observe: %v", err)
			}
		case op < 0.9:
			g.Forget()
		default:
			h := g.Kernel.appendHyperparameters(nil)
			for i := range h {
				h[i] += rng.Uniform(-0.2, 0.2)
			}
			g.Kernel.SetHyperparameters(h)
			X, y := g.x, g.yRaw
			if err := g.Fit(X, y); err != nil {
				t.Fatalf("refit: %v", err)
			}
		}
		steps++
		if len(g.x) < 1 {
			if g.jitter != 0 {
				t.Fatalf("step %d: empty GP holds stale jitter %g", steps, g.jitter)
			}
			continue
		}
		cold := cloneCold(t, g)
		if d := maxFactorDiff(g, cold); d > 0 {
			t.Fatalf("step %d: window-1 factor diverged by %g", steps, d)
		}
		im, iv := g.Posterior(probe)
		cm, cv := cold.Posterior(probe)
		if im != cm || iv != cv {
			t.Fatalf("step %d: posterior diverged: (%v,%v) vs (%v,%v)", steps, im, iv, cm, cv)
		}
		checks++
	}
	if checks < 200 {
		t.Fatalf("only %d checked sequences", checks)
	}
}

// TestDropToEmptyThenObserveEqualsColdFit pins the contract by name: after
// the window drops to empty (via Forget or an empty Fit), the next Observe
// must land in exactly the state of a cold Fit on that single point —
// including when the pre-drop factorization had escalated to a non-zero
// jitter.
func TestDropToEmptyThenObserveEqualsColdFit(t *testing.T) {
	g := New(NewMatern52(1), 0)
	// A duplicated point with no observation noise makes the kernel matrix
	// singular, which forces jitter escalation.
	g.Noise = 0
	if err := g.Fit([][]float64{{0.5}, {0.5}}, []float64{1, 1}); err != nil {
		t.Fatalf("fit: %v", err)
	}
	if g.jitter == 0 {
		t.Fatal("degenerate fit did not escalate jitter; edge not exercised")
	}
	g.Forget()
	g.Forget()
	if len(g.x) != 0 {
		t.Fatalf("window not empty: %d", len(g.x))
	}
	if g.jitter != 0 {
		t.Fatalf("drop-to-empty left stale jitter %g", g.jitter)
	}
	if err := g.Observe([]float64{0.2}, 3); err != nil {
		t.Fatalf("observe: %v", err)
	}
	cold := cloneCold(t, g)
	if d := maxFactorDiff(g, cold); d > 0 {
		t.Fatalf("observe-after-empty diverged from cold fit by %g", d)
	}
	m1, v1 := g.Posterior([]float64{0.25})
	m2, v2 := cold.Posterior([]float64{0.25})
	if m1 != m2 || v1 != v2 {
		t.Fatalf("posterior diverged: (%v,%v) vs (%v,%v)", m1, v1, m2, v2)
	}

	// Same contract via the empty-Fit path.
	g2 := New(NewMatern52(1), 0)
	g2.Noise = 0
	if err := g2.Fit([][]float64{{0.1}, {0.1}}, []float64{2, 2}); err != nil {
		t.Fatalf("fit: %v", err)
	}
	if g2.jitter == 0 {
		t.Fatal("degenerate fit did not escalate jitter; edge not exercised")
	}
	if err := g2.Fit(nil, nil); err != nil {
		t.Fatalf("empty fit: %v", err)
	}
	if g2.jitter != 0 {
		t.Fatalf("empty Fit left stale jitter %g", g2.jitter)
	}
}
