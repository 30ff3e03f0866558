package nn

import (
	"math"
	"testing"

	"aquatope/internal/stats"
)

func TestDenseForwardKnown(t *testing.T) {
	rng := stats.NewRNG(1)
	d := NewDense("d", 2, 1, Identity, rng)
	copy(d.W.W, []float64{2, 3})
	d.B.W[0] = 1
	out := d.Forward([]float64{1, 1})
	if out[0] != 6 {
		t.Fatalf("out = %v, want 6", out[0])
	}
}

func TestDenseInputMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense("d", 2, 1, Identity, stats.NewRNG(1)).Forward([]float64{1})
}

func TestActivations(t *testing.T) {
	if Tanh.apply(0) != 0 || Sigmoid.apply(0) != 0.5 || ReLU.apply(-2) != 0 || ReLU.apply(2) != 2 {
		t.Fatal("activation values wrong")
	}
	if Identity.derivFromOutput(123) != 1 {
		t.Fatal("identity deriv wrong")
	}
	if math.Abs(Sigmoid.derivFromOutput(0.5)-0.25) > 1e-12 {
		t.Fatal("sigmoid deriv wrong")
	}
}

// numericGrad computes d(loss)/d(p.W[i]) by central differences.
func numericGrad(p *Param, i int, loss func() float64) float64 {
	const eps = 1e-5
	orig := p.W[i]
	p.W[i] = orig + eps
	up := loss()
	p.W[i] = orig - eps
	down := loss()
	p.W[i] = orig
	return (up - down) / (2 * eps)
}

func TestMLPGradientCheck(t *testing.T) {
	rng := stats.NewRNG(2)
	m := NewMLP("m", []int{3, 4, 2}, Tanh, 0, rng)
	x := []float64{0.3, -0.7, 0.5}
	target := []float64{0.2, -0.1}
	lossFn := func() float64 {
		l, _ := MSELoss(m.Forward(x), target)
		return l
	}
	// Analytic gradients.
	_, g := MSELoss(m.Forward(x), target)
	m.Backward(g)
	for _, p := range m.Params() {
		for i := range p.W {
			want := numericGrad(p, i, lossFn)
			got := p.G[i]
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, got, want)
			}
		}
		p.ZeroGrad()
	}
}

func TestMLPInputGradientCheck(t *testing.T) {
	rng := stats.NewRNG(3)
	m := NewMLP("m", []int{2, 3, 1}, Tanh, 0, rng)
	x := []float64{0.4, -0.2}
	target := []float64{0.5}
	_, g := MSELoss(m.Forward(x), target)
	dx := m.Backward(g)
	const eps = 1e-5
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lu, _ := MSELoss(m.Forward(x), target)
		x[i] = orig - eps
		ld, _ := MSELoss(m.Forward(x), target)
		x[i] = orig
		want := (lu - ld) / (2 * eps)
		if math.Abs(dx[i]-want) > 1e-6 {
			t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, dx[i], want)
		}
	}
}

func TestLSTMGradientCheck(t *testing.T) {
	rng := stats.NewRNG(4)
	l := NewLSTM("l", 2, 3, rng)
	xs := [][]float64{{0.5, -0.3}, {0.1, 0.8}, {-0.6, 0.2}}
	target := []float64{0.3, -0.2, 0.1}
	lossFn := func() float64 {
		hs := l.ForwardSeq(xs, nil, nil, nil, nil)
		loss, _ := MSELoss(hs[len(hs)-1], target)
		return loss
	}
	hs := l.ForwardSeq(xs, nil, nil, nil, nil)
	_, g := MSELoss(hs[len(hs)-1], target)
	l.BackwardSeq(nil, g, nil)
	for _, p := range l.Params() {
		for i := range p.W {
			want := numericGrad(p, i, lossFn)
			got := p.G[i]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, got, want)
			}
		}
		p.ZeroGrad()
	}
}

func TestLSTMPerStepGradientCheck(t *testing.T) {
	// Gradients flowing from every timestep's output, not just the last.
	rng := stats.NewRNG(5)
	l := NewLSTM("l", 1, 2, rng)
	xs := [][]float64{{0.5}, {-0.5}, {0.25}}
	targets := [][]float64{{0.1, 0}, {0, 0.1}, {-0.1, 0.1}}
	lossFn := func() float64 {
		hs := l.ForwardSeq(xs, nil, nil, nil, nil)
		var total float64
		for t := range hs {
			lt, _ := MSELoss(hs[t], targets[t])
			total += lt
		}
		return total
	}
	hs := l.ForwardSeq(xs, nil, nil, nil, nil)
	dhs := make([][]float64, len(hs))
	for ti := range hs {
		_, g := MSELoss(hs[ti], targets[ti])
		dhs[ti] = g
	}
	l.BackwardSeq(dhs, nil, nil)
	for _, p := range l.Params() {
		for i := range p.W {
			want := numericGrad(p, i, lossFn)
			got := p.G[i]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, got, want)
			}
		}
		p.ZeroGrad()
	}
}

func TestLSTMVariationalDropoutGradientCheck(t *testing.T) {
	rng := stats.NewRNG(6)
	l := NewLSTM("l", 2, 2, rng)
	mx := DropoutMask{2, 0} // deterministic masks for the check
	mh := DropoutMask{0, 2}
	xs := [][]float64{{0.5, -0.3}, {0.1, 0.8}}
	target := []float64{0.3, -0.2}
	lossFn := func() float64 {
		hs := l.ForwardSeq(xs, nil, nil, mx, mh)
		loss, _ := MSELoss(hs[len(hs)-1], target)
		return loss
	}
	hs := l.ForwardSeq(xs, nil, nil, mx, mh)
	_, g := MSELoss(hs[len(hs)-1], target)
	l.BackwardSeq(nil, g, nil)
	for _, p := range l.Params() {
		for i := range p.W {
			want := numericGrad(p, i, lossFn)
			got := p.G[i]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, got, want)
			}
		}
		p.ZeroGrad()
	}
}

func TestLSTMStackGradientCheck(t *testing.T) {
	rng := stats.NewRNG(7)
	s := NewLSTMStack("s", 1, 2, 2, rng)
	xs := [][]float64{{0.4}, {-0.4}, {0.9}}
	target := []float64{0.2, -0.3}
	lossFn := func() float64 {
		s.ForwardSeq(xs, nil, nil)
		loss, _ := MSELoss(s.FinalHidden(), target)
		return loss
	}
	s.ForwardSeq(xs, nil, nil)
	_, g := MSELoss(s.FinalHidden(), target)
	s.BackwardSeq(nil, g, nil)
	for _, p := range s.Params() {
		for i := range p.W {
			want := numericGrad(p, i, lossFn)
			got := p.G[i]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, got, want)
			}
		}
		p.ZeroGrad()
	}
}

func TestAdamReducesLossOnRegression(t *testing.T) {
	rng := stats.NewRNG(8)
	m := NewMLP("m", []int{1, 8, 1}, Tanh, 0, rng)
	opt := NewAdam(0.01, m.Params())
	f := func(x float64) float64 { return math.Sin(3 * x) }
	var first, last float64
	for epoch := 0; epoch < 400; epoch++ {
		var total float64
		n := 20
		for i := 0; i < n; i++ {
			x := -1 + 2*float64(i)/float64(n-1)
			pred := m.Forward([]float64{x})
			loss, g := MSELoss(pred, []float64{f(x)})
			total += loss
			m.Backward(g)
		}
		opt.Step(float64(n))
		if epoch == 0 {
			first = total
		}
		last = total
	}
	if last > first/10 {
		t.Fatalf("training did not converge: first %v last %v", first, last)
	}
}

func TestAdamGradientClipping(t *testing.T) {
	p := NewParam("p", 1)
	p.G[0] = 1e9
	opt := NewAdam(0.1, []*Param{p})
	opt.Step(1)
	if math.Abs(p.W[0]) > 1 {
		t.Fatalf("clipped step moved too far: %v", p.W[0])
	}
	if p.G[0] != 0 {
		t.Fatal("gradient not zeroed after step")
	}
}

func TestLSTMLearnsToMemorize(t *testing.T) {
	// Learn to output the first input after 3 steps (needs memory).
	rng := stats.NewRNG(9)
	l := NewLSTM("l", 1, 8, rng)
	out := NewDense("o", 8, 1, Identity, rng)
	params := append(l.Params(), out.Params()...)
	opt := NewAdam(0.02, params)
	sequences := [][][]float64{
		{{1}, {0}, {0}},
		{{-1}, {0}, {0}},
		{{0.5}, {0}, {0}},
		{{-0.5}, {0}, {0}},
	}
	var last float64
	for epoch := 0; epoch < 300; epoch++ {
		var total float64
		for _, xs := range sequences {
			hs := l.ForwardSeq(xs, nil, nil, nil, nil)
			pred := out.Forward(hs[len(hs)-1])
			loss, g := MSELoss(pred, []float64{xs[0][0]})
			total += loss
			dh := out.Backward(g)
			l.BackwardSeq(nil, dh, nil)
		}
		opt.Step(float64(len(sequences)))
		last = total
	}
	if last > 0.01 {
		t.Fatalf("LSTM failed to memorize: loss %v", last)
	}
}

func TestDropoutMask(t *testing.T) {
	rng := stats.NewRNG(10)
	m := ResampleDropoutMask(nil, 1000, 0.5, rng)
	zero, kept := 0, 0
	for _, v := range m {
		switch v {
		case 0:
			zero++
		case 2: // 1/(1-0.5)
			kept++
		default:
			t.Fatalf("unexpected mask value %v", v)
		}
	}
	if zero < 400 || zero > 600 {
		t.Fatalf("drop count %d not near 500", zero)
	}
	// Rate 0 returns identity mask.
	m0 := ResampleDropoutMask(nil, 5, 0, rng)
	for _, v := range m0 {
		if v != 1 {
			t.Fatal("rate-0 mask should be all ones")
		}
	}
}

func TestMLPDropoutOnlyInTraining(t *testing.T) {
	rng := stats.NewRNG(11)
	m := NewMLP("m", []int{2, 16, 1}, Tanh, 0.5, rng)
	x := []float64{0.5, -0.5}
	m.Train = false
	a := m.Forward(x)[0]
	b := m.Forward(x)[0]
	if a != b {
		t.Fatal("inference should be deterministic with Train=false")
	}
	m.Train = true
	c := m.Forward(x)[0]
	d := m.Forward(x)[0]
	if c == d {
		t.Fatal("MC dropout forward passes should differ (with overwhelming probability)")
	}
}

func TestMSELoss(t *testing.T) {
	loss, g := MSELoss([]float64{1, 2}, []float64{0, 0})
	if loss != 2.5 {
		t.Fatalf("loss = %v, want 2.5", loss)
	}
	if g[0] != 1 || g[1] != 2 {
		t.Fatalf("grad = %v", g)
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := stats.NewRNG(12)
	p := NewParam("p", 100)
	p.InitXavier(10, 10, rng)
	limit := math.Sqrt(6.0 / 20.0)
	for _, w := range p.W {
		if w < -limit || w > limit {
			t.Fatalf("weight %v outside Xavier range", w)
		}
	}
}
