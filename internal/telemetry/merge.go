package telemetry

import (
	"math"
	"sort"
)

// This file implements the merge operations behind the parallel replication
// engine (internal/experiments/runner): each replication records into its own
// Collector and Registry, and the engine merges them into the destination in
// deterministic submission order once every replication has finished. Merging
// in a fixed order is what keeps the exported span stream and metric snapshot
// independent of goroutine scheduling.

// Merge appends every span of src, copying its records and field values as
// they are stored and re-basing span IDs (and parent references) onto this
// collector's ID sequence, so the merged stream stays densely numbered in
// merge order. Open spans in src are absorbed as-is and can no longer be
// ended through either collector — every merged-in span counts as completed
// in the checkpoint view — so merge a collector only after the run that fed
// it has completed. src is left untouched.
func (c *Collector) Merge(src *Collector) {
	if c == nil || src == nil {
		return
	}
	// Chunks are never reallocated, so src's records (and the arena
	// windows their fields point into) can be read after its lock is
	// released; src is done recording.
	src.mu.Lock()
	chunks, n, srcNext := src.chunks, src.n, src.next
	src.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	offset := c.next - 1
	for i := 0; i < n; i++ {
		r := *recordAt(chunks, i)
		r.id += offset
		if r.parent != 0 {
			r.parent += offset
		}
		if len(r.fields) > 0 {
			w := c.reserve(len(r.fields))
			copy(w, r.fields)
			r.fields = w
		}
		c.done = append(c.done, c.push(r))
	}
	c.next += srcNext - 1
}

// Merge folds src's metrics into this registry: counters accumulate, gauges
// take src's value (so merging replications in submission order reproduces
// the last-write-wins semantics of a serial run), and histograms add their
// bucket counts. Histograms absent from the destination adopt src's bucket
// layout; a histogram present in both with a different layout panics, since
// the merged counts would be meaningless. Metric names are visited in sorted
// order, so merging is deterministic. Nil-safe on both sides.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	counters := make(map[string]*Counter, len(src.counters))
	for k, v := range src.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(src.gauges))
	for k, v := range src.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(src.histograms))
	for k, v := range src.histograms {
		hists[k] = v
	}
	src.mu.Unlock()

	for _, name := range sortedNames(counters) {
		r.Counter(name).Add(counters[name].Value())
	}
	for _, name := range sortedNames(gauges) {
		r.Gauge(name).Set(gauges[name].Value())
	}
	for _, name := range sortedNames(hists) {
		r.mergeHistogram(name, hists[name])
	}
}

// mergeHistogram folds src into the named destination histogram, creating an
// empty clone of src's layout when the destination has none.
func (r *Registry) mergeHistogram(name string, src *Histogram) {
	r.mu.Lock()
	dst, ok := r.histograms[name]
	if !ok {
		dst = src.emptyClone()
		r.histograms[name] = dst
	}
	r.mu.Unlock()
	dst.merge(src)
}

// emptyClone returns a zero-count histogram with an identical bucket layout.
func (h *Histogram) emptyClone() *Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	edges := append([]float64(nil), h.edges...)
	return &Histogram{
		edges:  edges,
		logG:   h.logG,
		counts: make([]uint64, len(edges)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// merge adds src's observations to h. The layouts must match exactly.
func (h *Histogram) merge(src *Histogram) {
	// Snapshot src first; never hold both locks at once.
	src.mu.Lock()
	edges0 := src.edges[0]
	nEdges := len(src.edges)
	logG := src.logG
	counts := append([]uint64(nil), src.counts...)
	count := src.count
	sum := src.sum
	mn, mx := src.min, src.max
	src.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.edges) != nEdges || h.edges[0] != edges0 || h.logG != logG {
		panic("telemetry: histogram bucket layouts differ in Merge")
	}
	for i, c := range counts {
		h.counts[i] += c
	}
	h.count += count
	h.sum += sum
	if mn < h.min {
		h.min = mn
	}
	if mx > h.max {
		h.max = mx
	}
}

// sortedNames returns the map's keys in sorted order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
