// Package socialgraph builds a synthetic stand-in for the socfb-Reed98
// Facebook network (962 users, 18.8K follow edges) that drives the social
// network workload's fan-out in the paper (§7.1). A Barabási-Albert
// preferential-attachment process reproduces the heavy-tailed follower
// distribution that makes post-broadcast widths so variable.
package socialgraph

import (
	"sort"

	"aquatope/internal/stats"
)

// Graph is an undirected follow graph (like the Facebook dataset, follower
// relationships are mutual).
type Graph struct {
	adj [][]int
}

// Reed98Like returns a synthetic graph with the same scale as
// socfb-Reed98: 962 users and ≈18.8K edges.
func Reed98Like(seed int64) *Graph {
	return Generate(962, 20, seed)
}

// Generate builds a preferential-attachment graph with n nodes, each new
// node attaching m edges to existing nodes proportionally to their degree.
func Generate(n, m int, seed int64) *Graph {
	if n < 2 {
		n = 2
	}
	if m < 1 {
		m = 1
	}
	rng := stats.NewRNG(seed)
	g := &Graph{adj: make([][]int, n)}
	// Repeated-node list for degree-proportional sampling.
	var chooser []int
	// Seed clique of m+1 nodes.
	seedN := m + 1
	if seedN > n {
		seedN = n
	}
	for i := 0; i < seedN; i++ {
		for j := i + 1; j < seedN; j++ {
			g.addEdge(i, j)
			chooser = append(chooser, i, j)
		}
	}
	for v := seedN; v < n; v++ {
		attached := make(map[int]bool)
		for len(attached) < m && len(attached) < v {
			u := chooser[rng.Intn(len(chooser))]
			if u == v || attached[u] {
				continue
			}
			attached[u] = true
		}
		// Sort for determinism: map iteration order would otherwise leak
		// into the preferential-attachment sampling.
		us := make([]int, 0, len(attached))
		for u := range attached {
			us = append(us, u)
		}
		sort.Ints(us)
		for _, u := range us {
			g.addEdge(v, u)
			chooser = append(chooser, v, u)
		}
	}
	return g
}

func (g *Graph) addEdge(a, b int) {
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// NumUsers returns the node count.
func (g *Graph) NumUsers() int { return len(g.adj) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	var s int
	for _, nbrs := range g.adj {
		s += len(nbrs)
	}
	return s / 2
}

// Followers returns the follower count of a user.
func (g *Graph) Followers(user int) int {
	if user < 0 || user >= len(g.adj) {
		return 0
	}
	return len(g.adj[user])
}

// SampleUser returns a uniformly random user.
func (g *Graph) SampleUser(rng *stats.RNG) int { return rng.Intn(len(g.adj)) }

// MaxDegree returns the largest follower count.
func (g *Graph) MaxDegree() int {
	best := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > best {
			best = len(nbrs)
		}
	}
	return best
}

// MeanDegree returns the average follower count.
func (g *Graph) MeanDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(len(g.adj))
}
