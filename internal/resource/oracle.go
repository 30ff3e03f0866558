package resource

import (
	"math"

	"aquatope/internal/faas"
	"aquatope/internal/stats"
)

// Oracle finds the reference near-optimal configuration against which the
// paper normalizes every cost result ("% Oracle"). It evaluates noiselessly
// (interference off, repeats averaged). For tractable grids it enumerates
// exhaustively, matching the paper's description; for larger spaces it runs
// multi-start coordinate descent on the option grid, which converges to the
// same optimum on the monotone-ish response surfaces of these workloads.
type Oracle struct {
	Space    *Space
	Profiler *Profiler
	QoS      float64
	// MaxGrid bounds exhaustive enumeration (default 4096 configs).
	MaxGrid int
	// Repeats per noiseless evaluation (default 6).
	Repeats int
	Seed    int64
}

// oracleRestarts is how many random starts coordinate descent tries on
// top of its deterministic ones.
const oracleRestarts = 3

// NewOracle returns an oracle for the space.
func NewOracle(space *Space, prof *Profiler, qos float64, seed int64) *Oracle {
	return &Oracle{Space: space, Profiler: prof, QoS: qos,
		MaxGrid: 4096, Repeats: 6, Seed: seed}
}

// Solve returns the optimal feasible configuration and its cost. ok is
// false when no configuration meets QoS.
func (o *Oracle) Solve() (cfgs map[string]faas.ResourceConfig, cost float64, ok bool) {
	maxGrid := o.MaxGrid
	if maxGrid <= 0 {
		maxGrid = 4096
	}
	if o.Space.GridSize() <= maxGrid {
		return o.exhaustive()
	}
	return o.coordinateDescent()
}

func (o *Oracle) eval(x []float64) (cost, lat float64) {
	cfgs, err := o.Space.Decode(x)
	if err != nil {
		panic(err)
	}
	return o.Profiler.SampleNoiseless(cfgs, o.Repeats)
}

func (o *Oracle) exhaustive() (map[string]faas.ResourceConfig, float64, bool) {
	bestCost := math.Inf(1)
	var bestX []float64
	o.Space.EnumGrid(func(x []float64) {
		c, l := o.eval(x)
		if l <= o.QoS && c < bestCost {
			bestCost = c
			bestX = append([]float64(nil), x...)
		}
	})
	if bestX == nil {
		return nil, 0, false
	}
	cfgs, _ := o.Space.Decode(bestX)
	return cfgs, bestCost, true
}

// coordinateDescent improves one dimension at a time over the option grid
// until a full pass yields no improvement, from several starts.
func (o *Oracle) coordinateDescent() (map[string]faas.ResourceConfig, float64, bool) {
	rng := stats.NewRNG(o.Seed)
	dimOpts := func(d int) int {
		if d%2 == 0 {
			return len(o.Space.CPUOptions)
		}
		return len(o.Space.MemOptions)
	}
	// Deterministic starts: the most generous configuration (always
	// feasible if anything is) plus every feasible uniform "ladder"
	// level — the configurations a uniform autoscaler would land on,
	// which coordinate descent must at least match.
	var starts [][]float64
	full := make([]float64, o.Space.Dim())
	for d := range full {
		full[d] = binCenter(dimOpts(d)-1, dimOpts(d))
	}
	starts = append(starts, full)
	ladder := len(o.Space.CPUOptions)
	if n := len(o.Space.MemOptions); n < ladder {
		ladder = n
	}
	for lvl := 0; lvl < ladder; lvl++ {
		x := make([]float64, o.Space.Dim())
		for d := range x {
			n := dimOpts(d)
			i := lvl
			if i >= n {
				i = n - 1
			}
			x[d] = binCenter(i, n)
		}
		if _, l := o.eval(x); l <= o.QoS {
			starts = append(starts, x)
			break // cheapest feasible ladder level is enough
		}
	}
	globalBest := math.Inf(1)
	var globalX []float64
	for r := 0; r < oracleRestarts+len(starts); r++ {
		var x []float64
		if r < len(starts) {
			x = append([]float64(nil), starts[r]...)
		} else {
			x = make([]float64, o.Space.Dim())
			for d := range x {
				x[d] = binCenter(rng.Intn(dimOpts(d)), dimOpts(d))
			}
		}
		cost, lat := o.eval(x)
		score := o.score(cost, lat)
		for pass := 0; pass < 8; pass++ {
			improved := false
			for d := 0; d < len(x); d++ {
				n := dimOpts(d)
				bestOpt := -1
				for i := 0; i < n; i++ {
					trial := append([]float64(nil), x...)
					trial[d] = binCenter(i, n)
					if trial[d] == x[d] {
						continue
					}
					c, l := o.eval(trial)
					if s := o.score(c, l); s < score {
						score, bestOpt = s, i
						cost, lat = c, l
					}
				}
				if bestOpt >= 0 {
					x[d] = binCenter(bestOpt, dimOpts(d))
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		if lat <= o.QoS && cost < globalBest {
			globalBest = cost
			globalX = append([]float64(nil), x...)
		}
	}
	if globalX == nil {
		return nil, 0, false
	}
	cfgs, _ := o.Space.Decode(globalX)
	return cfgs, globalBest, true
}

// score orders configurations: feasible ones by cost, infeasible ones by a
// large violation penalty so descent walks toward feasibility first.
func (o *Oracle) score(cost, lat float64) float64 {
	if lat <= o.QoS {
		return cost
	}
	return 1e6 + (lat - o.QoS)
}
