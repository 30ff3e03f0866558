// Package loadgen shapes the traffic the paper drives with Locust against
// OpenWhisk (§7.2): open-loop Poisson arrivals regenerated from per-minute
// counts, and thinning to a utilization cap. Handing arrivals to the
// platform — input and fan-out width draws included — is core.Controller's
// job.
package loadgen

import (
	"aquatope/internal/stats"
	"aquatope/internal/trace"
)

// OpenLoopPoisson generates a fresh trace with Poisson arrivals at the
// given per-minute rate — the paper's per-minute Poisson regeneration for
// traces that only provide counts.
func OpenLoopPoisson(counts []float64, seed int64) *trace.Trace {
	rng := stats.NewRNG(seed)
	tr := &trace.Trace{DurationMin: len(counts)}
	for m, c := range counts {
		if c <= 0 {
			continue
		}
		// Exponential inter-arrival times within the minute.
		rate := c / 60
		t := float64(m) * 60
		for {
			t += rng.Exponential(rate)
			if t >= float64(m+1)*60 {
				break
			}
			tr.Arrivals = append(tr.Arrivals, t)
		}
	}
	return tr
}

// ScaleToUtilization thins or replicates a trace so that the implied mean
// CPU demand stays below the target fraction of cluster capacity — the
// paper caps utilization at 70% (§7.2).
func ScaleToUtilization(tr *trace.Trace, meanExecSec, cpuPerRequest, clusterCPU, target float64, seed int64) *trace.Trace {
	if target <= 0 || clusterCPU <= 0 || len(tr.Arrivals) == 0 {
		return tr
	}
	horizon := float64(tr.DurationMin) * 60
	if horizon <= 0 {
		return tr
	}
	ratePerSec := float64(len(tr.Arrivals)) / horizon
	demand := ratePerSec * meanExecSec * cpuPerRequest
	if demand <= target*clusterCPU {
		return tr
	}
	factor := target * clusterCPU / demand
	return tr.ScaleRate(factor, seed)
}
