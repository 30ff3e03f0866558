// Package nn is a small from-scratch neural-network library sufficient to
// reproduce the paper's hybrid Bayesian model: dense layers, stacked LSTM
// layers trained with backpropagation through time, the Adam optimizer, and
// standard plus variational (per-sequence tied) dropout for Monte-Carlo
// Bayesian inference.
//
// The library is deliberately minimal: vectors are []float64, there is no
// batching (gradients accumulate across samples before an optimizer step),
// and all randomness flows through explicitly seeded stats.RNG streams.
package nn

import (
	"math"

	"aquatope/internal/stats"
)

// Param is a named tensor (stored flat) with its gradient accumulator.
type Param struct {
	Name string
	W    []float64
	G    []float64
}

// NewParam allocates a zero parameter of the given size.
func NewParam(name string, size int) *Param {
	return &Param{Name: name, W: make([]float64, size), G: make([]float64, size)}
}

// InitXavier fills the parameter with Xavier/Glorot uniform noise for a
// layer with the given fan-in and fan-out.
func (p *Param) InitXavier(fanIn, fanOut int, rng *stats.RNG) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range p.W {
		p.W[i] = rng.Uniform(-limit, limit)
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Adam's standard moment decays and epsilon, and the global
// gradient-norm clip essential for LSTM BPTT stability. They are typed,
// so 1-adamBeta1 is 0.09999999999999998, what float64 subtraction gives;
// an untyped 1-0.9 would fold to 0.1 and move every trained weight.
const (
	adamBeta1 float64 = 0.9
	adamBeta2 float64 = 0.999
	adamEps   float64 = 1e-8
	adamClip  float64 = 5
)

// Adam is the Adam optimizer (Kingma & Ba 2015) over a set of parameters.
type Adam struct {
	LR      float64
	t       int
	m, v    map[*Param][]float64
	targets []*Param
}

// NewAdam returns an Adam optimizer with standard defaults and the given
// learning rate, managing the provided parameters.
func NewAdam(lr float64, params []*Param) *Adam {
	a := &Adam{LR: lr,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64), targets: params}
	for _, p := range params {
		a.m[p] = make([]float64, len(p.W))
		a.v[p] = make([]float64, len(p.W))
	}
	return a
}

// Step applies one Adam update using the accumulated gradients (scaled by
// 1/scale, e.g. the mini-batch size) and then zeroes them.
func (a *Adam) Step(scale float64) {
	if scale == 0 {
		scale = 1
	}
	a.t++
	var norm float64
	for _, p := range a.targets {
		for _, g := range p.G {
			g /= scale
			norm += g * g
		}
	}
	norm = math.Sqrt(norm)
	if norm > adamClip {
		factor := adamClip / norm
		scale /= factor
	}
	bc1 := 1 - math.Pow(adamBeta1, float64(a.t))
	bc2 := 1 - math.Pow(adamBeta2, float64(a.t))
	for _, p := range a.targets {
		m, v := a.m[p], a.v[p]
		for i := range p.W {
			g := p.G[i] / scale
			m[i] = adamBeta1*m[i] + (1-adamBeta1)*g
			v[i] = adamBeta2*v[i] + (1-adamBeta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.W[i] -= a.LR * mh / (math.Sqrt(vh) + adamEps)
		}
		p.ZeroGrad()
	}
}
