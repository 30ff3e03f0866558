package bo

import (
	"math"

	"aquatope/internal/gp"
	"aquatope/internal/stats"
)

// Optimizer is the common interface of all configuration-search strategies:
// propose configurations, ingest profiled observations, report the best
// QoS-feasible configuration found.
type Optimizer interface {
	Suggest() [][]float64
	Observe([]Observation)
	BestFeasible() (x []float64, cost float64, ok bool)
}

var (
	_ Optimizer = (*Engine)(nil)
	_ Optimizer = (*RandomSearch)(nil)
	_ Optimizer = (*CLITE)(nil)
)

// RandomSearch proposes uniformly random configurations and never learns —
// the Random baseline of Figs. 12 and 13.
type RandomSearch struct {
	Dim   int
	QoS   float64
	Batch int
	rng   *stats.RNG
	obs   []Observation
}

// NewRandomSearch returns a random-search baseline.
func NewRandomSearch(dim int, qos float64, batch int, seed int64) *RandomSearch {
	if batch <= 0 {
		batch = 1
	}
	return &RandomSearch{Dim: dim, QoS: qos, Batch: batch, rng: stats.NewRNG(seed)}
}

// Suggest implements Optimizer.
func (r *RandomSearch) Suggest() [][]float64 {
	out := make([][]float64, r.Batch)
	for i := range out {
		x := make([]float64, r.Dim)
		for d := range x {
			x[d] = r.rng.Float64()
		}
		out[i] = x
	}
	return out
}

// Observe implements Optimizer.
func (r *RandomSearch) Observe(batch []Observation) { r.obs = append(r.obs, batch...) }

// BestFeasible implements Optimizer.
func (r *RandomSearch) BestFeasible() ([]float64, float64, bool) {
	best := math.Inf(1)
	var x []float64
	ok := false
	for _, o := range r.obs {
		if o.Latency <= r.QoS && o.Cost < best {
			best, x, ok = o.Cost, o.X, true
		}
	}
	return x, best, ok
}

// CLITE reimplements the CLITE baseline (Patel & Tiwari, HPCA'20) adapted to
// serverless per the paper's §7.4: a single GP over a hand-crafted penalized
// objective — cost when QoS is met, cost plus a violation penalty otherwise —
// maximized with classic (noise-unaware) expected improvement, one sample at
// a time. Its known weaknesses, which Aquatope's design removes, are the
// reactive penalty, the noiseless-incumbent assumption, and sequential
// sampling.
type CLITE struct {
	Dim int
	QoS float64

	rng    *stats.RNG
	surr   *gp.GP
	obs    []Observation
	fitted bool
	since  int
}

// cliteBootstrap random samples precede CLITE's first GP fit, and
// clitePenaltyWeight scales the QoS-violation term of its score.
const (
	cliteBootstrap             = 5
	clitePenaltyWeight float64 = 2
)

// NewCLITE returns the CLITE baseline optimizer.
func NewCLITE(dim int, qos float64, seed int64) *CLITE {
	c := &CLITE{Dim: dim, QoS: qos, rng: stats.NewRNG(seed)}
	c.surr = gp.New(gp.NewMatern52(dim), 1e-6) // noiseless assumption, per paper
	return c
}

// score is CLITE's manually crafted objective (lower is better).
func (c *CLITE) score(o Observation) float64 {
	if o.Latency <= c.QoS {
		return o.Cost
	}
	return o.Cost * (1 + clitePenaltyWeight*(o.Latency-c.QoS)/c.QoS)
}

// Suggest implements Optimizer (single candidate per iteration).
func (c *CLITE) Suggest() [][]float64 {
	if len(c.obs) < cliteBootstrap || !c.fitted {
		x := make([]float64, c.Dim)
		for d := range x {
			x[d] = c.rng.Float64()
		}
		return [][]float64{x}
	}
	// Classic EI over the penalized score with the best observed score as
	// a noiseless incumbent.
	best := math.Inf(1)
	for _, o := range c.obs {
		if s := c.score(o); s < best {
			best = s
		}
	}
	var bestX []float64
	bestEI := -1.0
	for i := 0; i < 256; i++ {
		x := make([]float64, c.Dim)
		for d := range x {
			x[d] = c.rng.Float64()
		}
		m, v := c.surr.Posterior(x)
		sd := math.Sqrt(v + 1e-12)
		z := (best - m) / sd
		ei := (best-m)*stats.NormalCDF(z) + sd*stats.NormalPDF(z)
		if ei > bestEI {
			bestEI, bestX = ei, x
		}
	}
	return [][]float64{bestX}
}

// Observe implements Optimizer. Scores are fixed at observation time and
// history is never evicted, so the surrogate grows by incremental appends
// (rank-1 factor extensions) instead of a full refit per batch; only the
// every-5-observations hyperparameter refit reconditions from scratch.
func (c *CLITE) Observe(batch []Observation) {
	c.obs = append(c.obs, batch...)
	c.since += len(batch)
	ok := true
	for _, o := range batch {
		if c.surr.Observe(o.X, c.score(o)) != nil {
			ok = false
			break
		}
	}
	if !ok {
		// Recondition from scratch; scores are recomputable from history.
		xs := make([][]float64, len(c.obs))
		ys := make([]float64, len(c.obs))
		for i, o := range c.obs {
			xs[i] = o.X
			ys[i] = c.score(o)
		}
		if err := c.surr.Fit(xs, ys); err != nil {
			c.fitted = false
			return
		}
	}
	if len(c.obs) < 2 {
		return
	}
	if c.since >= 5 {
		c.surr.FitHyperparameters(c.rng, 2)
		c.since = 0
	}
	c.fitted = true
}

// BestFeasible implements Optimizer.
func (c *CLITE) BestFeasible() ([]float64, float64, bool) {
	best := math.Inf(1)
	var x []float64
	ok := false
	for _, o := range c.obs {
		if o.Latency <= c.QoS && o.Cost < best {
			best, x, ok = o.Cost, o.X, true
		}
	}
	return x, best, ok
}
