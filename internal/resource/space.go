// Package resource implements the container resource manager of §5: it
// maps workflow-wide resource configurations (per-function CPU and memory,
// matching provider interfaces) onto the normalized search cube, profiles candidates on the simulated platform under
// warm-start conditions, and drives the search with the customized BO
// engine or one of the paper's baselines (Random, Autoscale, CLITE), with
// an exhaustive Oracle for reference.
package resource

import (
	"fmt"
	"math"

	"aquatope/internal/apps"
	"aquatope/internal/faas"
)

// DefaultCPUOptions are the per-function CPU limits explored (cores).
var DefaultCPUOptions = []float64{0.25, 0.5, 1, 2, 4}

// DefaultMemOptions are the per-function memory limits explored (MB).
var DefaultMemOptions = []float64{128, 256, 512, 1024, 2048, 4096}

// Space maps [0,1]^Dim vectors to per-function resource configurations:
// coordinates 2i and 2i+1 pick function i's CPU and memory options.
type Space struct {
	Functions  []string
	CPUOptions []float64
	MemOptions []float64
}

// NewSpace returns the default CPU×memory space over an app's functions.
func NewSpace(a *apps.App) *Space {
	return &Space{
		Functions:  a.FunctionNames(),
		CPUOptions: DefaultCPUOptions,
		MemOptions: DefaultMemOptions,
	}
}

// Dim returns the dimensionality of the normalized search cube.
func (s *Space) Dim() int { return 2 * len(s.Functions) }

// snap maps u in [0,1] to an option index.
func snapIdx(u float64, n int) int {
	i := int(u * float64(n))
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Decode maps a normalized vector to per-function configurations.
func (s *Space) Decode(x []float64) (map[string]faas.ResourceConfig, error) {
	if len(x) != s.Dim() {
		return nil, fmt.Errorf("resource: vector dim %d, want %d", len(x), s.Dim())
	}
	out := make(map[string]faas.ResourceConfig, len(s.Functions))
	for i, fn := range s.Functions {
		out[fn] = faas.ResourceConfig{
			CPU:      s.CPUOptions[snapIdx(x[2*i], len(s.CPUOptions))],
			MemoryMB: s.MemOptions[snapIdx(x[2*i+1], len(s.MemOptions))],
		}
	}
	return out, nil
}

func binCenter(i, n int) float64 { return (float64(i) + 0.5) / float64(n) }

// GridSize returns the total number of distinct configurations.
func (s *Space) GridSize() int {
	per := len(s.CPUOptions) * len(s.MemOptions)
	total := 1
	for range s.Functions {
		total *= per
		if total > math.MaxInt32 {
			return math.MaxInt32
		}
	}
	return total
}

// EnumGrid calls fn for every grid configuration (bin-center coordinates).
// Use only when GridSize is tractable.
func (s *Space) EnumGrid(fn func(x []float64)) {
	dims := make([]int, s.Dim())
	for i := range s.Functions {
		dims[2*i] = len(s.CPUOptions)
		dims[2*i+1] = len(s.MemOptions)
	}
	idx := make([]int, len(dims))
	for {
		x := make([]float64, len(dims))
		for d := range dims {
			x[d] = binCenter(idx[d], dims[d])
		}
		fn(x)
		// Increment mixed-radix counter.
		d := 0
		for d < len(dims) {
			idx[d]++
			if idx[d] < dims[d] {
				break
			}
			idx[d] = 0
			d++
		}
		if d == len(dims) {
			return
		}
	}
}
