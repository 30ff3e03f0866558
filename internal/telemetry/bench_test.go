package telemetry

// Benchmarks for registry updates on the invocation hot path, with
// telemetry disabled (nil handles) and enabled. The span path is measured by
// the bench probes telemetry.span_ns and telemetry.span_allocs, and the
// disabled span path (a nil *Collector) by TestNilCollectorAllocBudget.

import "testing"

// BenchmarkNilInstruments mirrors the per-event registry updates in
// sim.Engine and faas.Metrics with telemetry disabled (nil handles).
func BenchmarkNilInstruments(b *testing.B) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(float64(i))
		h.Observe(float64(i))
	}
}

// BenchmarkHistogramObserve is the enabled-path cost of one histogram
// observation (bucket index via one log call).
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultBucketLo, DefaultBucketGrowth, DefaultBucketCount)
	for i := 0; i < b.N; i++ {
		h.Observe(0.25)
	}
}
