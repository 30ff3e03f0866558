package faas

import (
	"math"

	"aquatope/internal/stats"
)

// SyntheticModel is a configurable resource-performance model emulating the
// paper's function generator (§7.1): "configurable resource-intensive
// functions that emulate varying CPU and memory workloads". Its latency
// response has the shape real functions exhibit: Amdahl-style diminishing
// returns in CPU, a memory knee below which performance collapses, a cold
// execution penalty from re-building the execution context, and
// multiplicative lognormal jitter.
type SyntheticModel struct {
	// BaseExecSec is the warm execution time at 1 CPU, ample memory,
	// input size 1.
	BaseExecSec float64
	// CPUShare is the parallelizable fraction of the work (0..1): exec
	// time = base × (share/cpu + 1-share).
	CPUShare float64
	// MemKneeMB is the memory under which execution degrades quadratically.
	MemKneeMB float64
	// ColdInitSec is the container initialization time (runtime + deps).
	ColdInitSec float64
	// ColdExecPenalty multiplies the first execution in a fresh container
	// (context rebuild: SDK clients, models, connections).
	ColdExecPenalty float64
	// InputExponent scales execution time with input size^exponent.
	//aqualint:allow onevalue bench/adapter.go writes it; ROADMAP item 9 opens bench/
	InputExponent float64
	// JitterStd is the lognormal sigma of intrinsic execution noise.
	JitterStd float64
}

var _ PerfModel = (*SyntheticModel)(nil)

// DefaultSyntheticModel returns a moderately CPU-bound function profile.
func DefaultSyntheticModel() *SyntheticModel {
	return &SyntheticModel{
		BaseExecSec:     0.5,
		CPUShare:        0.7,
		MemKneeMB:       256,
		ColdInitSec:     1.5,
		ColdExecPenalty: 1.6,
		InputExponent:   1,
		JitterStd:       0.05,
	}
}

// InitTime implements PerfModel. Initialization is mildly CPU-sensitive
// (unpacking, JIT) with jitter.
func (m *SyntheticModel) InitTime(cfg ResourceConfig, rng *stats.RNG) float64 {
	t := m.ColdInitSec * (0.6 + 0.4/math.Max(cfg.CPU, 0.1))
	if m.JitterStd > 0 {
		t *= rng.LogNormal(0, m.JitterStd)
	}
	return t
}

// ExecTime implements PerfModel.
func (m *SyntheticModel) ExecTime(cfg ResourceConfig, cold bool, inputSize float64, rng *stats.RNG) float64 {
	if inputSize <= 0 {
		inputSize = 1
	}
	work := m.BaseExecSec * math.Pow(inputSize, m.InputExponent)
	cpu := math.Max(cfg.CPU, 0.05)
	t := work * (m.CPUShare/cpu + (1 - m.CPUShare))
	if cfg.MemoryMB < m.MemKneeMB {
		ratio := m.MemKneeMB / math.Max(cfg.MemoryMB, 1)
		t *= ratio * ratio
	}
	if cold && m.ColdExecPenalty > 1 {
		t *= m.ColdExecPenalty
	}
	if m.JitterStd > 0 {
		t *= rng.LogNormal(0, m.JitterStd)
	}
	return t
}
