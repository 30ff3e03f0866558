package socialgraph

import (
	"testing"

	"aquatope/internal/stats"
)

func TestReed98Scale(t *testing.T) {
	g := Reed98Like(1)
	if g.NumUsers() != 962 {
		t.Fatalf("users = %d, want 962", g.NumUsers())
	}
	e := g.NumEdges()
	if e < 15000 || e > 23000 {
		t.Fatalf("edges = %d, want ≈18.8K", e)
	}
}

func TestHeavyTailedDegrees(t *testing.T) {
	g := Reed98Like(2)
	max := g.MaxDegree()
	mean := g.MeanDegree()
	// Preferential attachment: hubs should far exceed the mean.
	if float64(max) < 3*mean {
		t.Fatalf("max degree %d not heavy-tailed vs mean %.1f", max, mean)
	}
}

func TestEdgesSymmetric(t *testing.T) {
	g := Generate(50, 3, 3)
	for u := 0; u < g.NumUsers(); u++ {
		for _, v := range g.adj[u] {
			found := false
			for _, w := range g.adj[v] {
				if w == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", u, v)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := Generate(100, 5, 7)
	b := Generate(100, 5, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed should give same graph")
	}
	for u := 0; u < 100; u++ {
		if a.Followers(u) != b.Followers(u) {
			t.Fatal("degree mismatch under same seed")
		}
	}
}

func TestBoundsAndSampling(t *testing.T) {
	g := Generate(20, 2, 4)
	if g.Followers(-1) != 0 || g.Followers(99) != 0 {
		t.Fatal("out-of-range follower count should be 0")
	}
	rng := stats.NewRNG(5)
	for i := 0; i < 100; i++ {
		u := g.SampleUser(rng)
		if u < 0 || u >= 20 {
			t.Fatalf("sampled user %d out of range", u)
		}
	}
}

func TestTinyGraphs(t *testing.T) {
	g := Generate(1, 1, 6) // clamped to 2 nodes
	if g.NumUsers() != 2 {
		t.Fatalf("users = %d", g.NumUsers())
	}
	if g.NumEdges() < 1 {
		t.Fatal("seed clique missing")
	}
}

func TestAllNodesConnected(t *testing.T) {
	g := Generate(200, 4, 8)
	for u := 0; u < g.NumUsers(); u++ {
		if g.Followers(u) == 0 {
			t.Fatalf("node %d isolated", u)
		}
	}
}
