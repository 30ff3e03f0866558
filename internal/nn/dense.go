package nn

import (
	"math"

	"aquatope/internal/stats"
)

// Activation selects the nonlinearity of a Dense layer.
type Activation int

const (
	// Identity applies no nonlinearity.
	Identity Activation = iota
	// Tanh is the hyperbolic tangent, the paper's choice for the
	// prediction network.
	Tanh
	// Sigmoid is the logistic function.
	Sigmoid
	// ReLU is max(0, x).
	ReLU
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// derivFromOutput returns d(act)/dx expressed via the activation output y.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// Dense is a fully connected layer y = act(Wx + b).
type Dense struct {
	In, Out int
	Act     Activation
	W       *Param // Out×In, row-major
	B       *Param // Out

	// caches from the most recent Forward, used by Backward. lastOut is a
	// reusable buffer: Forward's return value stays valid only until the
	// next Forward on this layer.
	lastIn  []float64
	lastOut []float64
}

// NewDense returns a Dense layer with Xavier-initialized weights.
func NewDense(name string, in, out int, act Activation, rng *stats.RNG) *Dense {
	d := &Dense{In: in, Out: out, Act: act,
		W: NewParam(name+".W", out*in), B: NewParam(name+".b", out)}
	d.W.InitXavier(in, out, rng)
	return d
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward computes the layer output, caching activations for Backward.
// The returned slice is a view into a per-layer buffer reused by the next
// Forward call.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic("nn: dense input size mismatch")
	}
	out := grow(d.lastOut, d.Out)
	for o := 0; o < d.Out; o++ {
		s := d.B.W[o]
		row := d.W.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			s += row[i] * xi
		}
		out[o] = d.Act.apply(s)
	}
	d.lastIn = x
	d.lastOut = out
	return out
}

// Backward accumulates gradients given dL/dy and returns dL/dx. It must
// follow a Forward call on the same input.
func (d *Dense) Backward(dy []float64) []float64 {
	if len(dy) != d.Out {
		panic("nn: dense grad size mismatch")
	}
	dx := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		g := dy[o] * d.Act.derivFromOutput(d.lastOut[o])
		d.B.G[o] += g
		row := d.W.W[o*d.In : (o+1)*d.In]
		grow := d.W.G[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			grow[i] += g * d.lastIn[i]
			dx[i] += g * row[i]
		}
	}
	return dx
}

// DropoutMask is a per-unit keep/scale mask. With inverted dropout the kept
// units are scaled by 1/(1-rate) so inference needs no rescaling.
type DropoutMask []float64

// ResampleDropoutMask refills m in place with a fresh mask of the given
// size and drop probability rate, growing the buffer only when needed (a nil
// m allocates one). A rate of 0 gives an all-ones mask and draws nothing.
func ResampleDropoutMask(m DropoutMask, size int, rate float64, rng *stats.RNG) DropoutMask {
	if cap(m) < size {
		m = make(DropoutMask, size)
	}
	m = m[:size]
	if rate <= 0 {
		for i := range m {
			m[i] = 1
		}
		return m
	}
	keep := 1 - rate
	for i := range m {
		if rng.Float64() < keep {
			m[i] = 1 / keep
		} else {
			m[i] = 0
		}
	}
	return m
}

// Apply returns x element-wise multiplied by the mask (new slice).
func (m DropoutMask) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] * m[i]
	}
	return out
}

// ApplyInto writes x element-wise multiplied by the mask into dst, which
// must have the same length as x.
func (m DropoutMask) ApplyInto(x, dst []float64) {
	for i := range x {
		dst[i] = x[i] * m[i]
	}
}

// MLP is a stack of Dense layers with optional dropout masks between them.
// When Train is false dropout is skipped entirely; when true, fresh masks
// are sampled on every forward pass (MC dropout keeps Train=true at
// inference to draw from the approximate posterior).
type MLP struct {
	Layers      []*Dense
	DropoutRate float64
	Train       bool
	rng         *stats.RNG

	masks []DropoutMask // masks used by the last forward, per hidden layer

	// Reusable per-hidden-layer buffers: the mask storage behind masks and
	// the post-dropout activations.
	maskBufs []DropoutMask
	hBufs    [][]float64
}

// NewMLP builds an MLP with the given layer sizes (len >= 2), hidden
// activation act and identity output.
func NewMLP(name string, sizes []int, act Activation, dropout float64, rng *stats.RNG) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{DropoutRate: dropout, rng: rng}
	for i := 0; i+1 < len(sizes); i++ {
		a := act
		if i+2 == len(sizes) {
			a = Identity
		}
		m.Layers = append(m.Layers, NewDense(name, sizes[i], sizes[i+1], a, rng))
	}
	return m
}

// Params returns all trainable parameters.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward runs the network. Dropout applies after every hidden layer when
// Train is true.
func (m *MLP) Forward(x []float64) []float64 {
	m.masks = m.masks[:0]
	h := x
	mi := 0
	for i, l := range m.Layers {
		h = l.Forward(h)
		if m.Train && m.DropoutRate > 0 && i+1 < len(m.Layers) {
			if mi >= len(m.maskBufs) {
				m.maskBufs = append(m.maskBufs, nil)
				m.hBufs = append(m.hBufs, nil)
			}
			m.maskBufs[mi] = ResampleDropoutMask(m.maskBufs[mi], len(h), m.DropoutRate, m.rng)
			m.hBufs[mi] = grow(m.hBufs[mi], len(h))
			m.maskBufs[mi].ApplyInto(h, m.hBufs[mi])
			h = m.hBufs[mi]
			m.masks = append(m.masks, m.maskBufs[mi])
			mi++
		}
	}
	return h
}

// Backward accumulates parameter gradients for the last Forward and returns
// the gradient with respect to the input.
func (m *MLP) Backward(dy []float64) []float64 {
	g := dy
	maskIdx := len(m.masks) - 1
	for i := len(m.Layers) - 1; i >= 0; i-- {
		if m.Train && m.DropoutRate > 0 && i+1 < len(m.Layers) {
			g = m.masks[maskIdx].Apply(g)
			maskIdx--
		}
		g = m.Layers[i].Backward(g)
	}
	return g
}

// MSELoss returns the mean squared error and the gradient dL/dpred.
func MSELoss(pred, target []float64) (float64, []float64) {
	if len(pred) != len(target) {
		panic("nn: loss size mismatch")
	}
	n := float64(len(pred))
	grad := make([]float64, len(pred))
	var loss float64
	for i := range pred {
		d := pred[i] - target[i]
		loss += d * d
		grad[i] = 2 * d / n
	}
	return loss / n, grad
}
