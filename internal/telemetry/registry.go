package telemetry

import (
	"bytes"
	"math"
	"sync"
)

// Metric naming convention (see DESIGN.md §6): dot-separated
// "<subsystem>.<metric>[_<unit>][.<entity>]", e.g. "faas.cold_starts",
// "faas.invocation.latency_s", "workflow.latency_s.mlpipeline".

// Registry holds named counters, gauges and histograms. Handles are created
// on first use and cached by callers; all lookup methods are nil-safe and
// return nil handles on a nil registry, whose update methods are no-ops —
// so disabled telemetry costs one branch per update.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	// snapMu guards snap, the buffer SnapshotTo renders into at every
	// checkpoint boundary.
	snapMu sync.Mutex
	snap   bytes.Buffer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the default log-spaced latency
// buckets, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBuckets(name, DefaultBucketLo, DefaultBucketGrowth, DefaultBucketCount)
}

// HistogramBuckets returns the named histogram, creating it with the given
// bucket layout if needed (an existing histogram keeps its layout).
func (r *Registry) HistogramBuckets(name string, lo, growth float64, n int) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(lo, growth, n)
		r.histograms[name] = h
	}
	return h
}

// ---------------------------------------------------------------------------

// Counter is a monotonically accumulating metric.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add accumulates d. Nil-safe.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the accumulated total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a last-value metric.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the last stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// ---------------------------------------------------------------------------

// Default histogram layout: 96 log-spaced buckets from 1 ms growing by
// 2^(1/4) (~19%) per bucket, covering up to ~16,777 s — wide enough for any
// latency the simulator produces while keeping percentile error under the
// bucket growth factor.
const (
	DefaultBucketLo    = 1e-3
	DefaultBucketCount = 96
)

// DefaultBucketGrowth is the default per-bucket geometric growth factor.
var DefaultBucketGrowth = math.Pow(2, 0.25)

// Histogram is a fixed-bucket streaming histogram over log-spaced buckets:
// bucket 0 holds values <= edges[0], bucket i values in
// (edges[i-1], edges[i]], and one overflow bucket everything beyond the
// last edge. Percentiles are extracted by linear interpolation inside the
// covering bucket, so relative error is bounded by the growth factor.
type Histogram struct {
	mu       sync.Mutex
	edges    []float64 // inclusive upper bounds of the finite buckets
	logG     float64
	counts   []uint64 // len(edges)+1; last entry is the overflow bucket
	count    uint64
	sum      float64
	min, max float64
}

// NewHistogram returns a histogram with n log-spaced buckets starting at
// upper edge lo and growing geometrically by growth per bucket.
func NewHistogram(lo, growth float64, n int) *Histogram {
	if lo <= 0 || growth <= 1 || n < 1 {
		panic("telemetry: invalid histogram bucket layout")
	}
	edges := make([]float64, n)
	e := lo
	for i := range edges {
		edges[i] = e
		e *= growth
	}
	return &Histogram{
		edges:  edges,
		logG:   math.Log(growth),
		counts: make([]uint64, n+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one value. NaN values are dropped. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	h.counts[h.bucketIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// bucketIndex maps a value to its bucket. Caller holds the lock.
func (h *Histogram) bucketIndex(v float64) int {
	n := len(h.edges)
	if v <= h.edges[0] {
		return 0
	}
	if v > h.edges[n-1] {
		return n // overflow
	}
	i := int(math.Log(v/h.edges[0]) / h.logG)
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	// Fix float fuzz from the log-based index.
	for i < n-1 && h.edges[i] < v {
		i++
	}
	for i > 0 && h.edges[i-1] >= v {
		i--
	}
	return i
}

// Count returns the number of observations (0 on nil).
//
//aqualint:allow unreached test observer: telemetry and faas metrics tests read it
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear interpolation
// inside the covering bucket, clamped to the observed [min, max]. It
// returns 0 when the histogram is empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	if target < 1 {
		target = 1
	}
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			loE, hiE := h.bucketBounds(b)
			frac := (target - cum) / float64(c)
			v := loE + frac*(hiE-loE)
			return math.Min(math.Max(v, h.min), h.max)
		}
		cum = next
	}
	return h.max
}

// bucketBounds returns bucket b's interpolation interval, tightened by the
// observed min/max so sparse tails do not smear estimates across the whole
// bucket. Caller holds the lock.
func (h *Histogram) bucketBounds(b int) (lo, hi float64) {
	n := len(h.edges)
	switch {
	case b == 0:
		lo, hi = math.Min(h.min, h.edges[0]), h.edges[0]
	case b == n:
		lo, hi = h.edges[n-1], math.Max(h.max, h.edges[n-1])
	default:
		lo, hi = h.edges[b-1], h.edges[b]
	}
	if h.min > lo {
		lo = math.Min(h.min, hi)
	}
	if h.max < hi {
		hi = math.Max(h.max, lo)
	}
	return lo, hi
}
