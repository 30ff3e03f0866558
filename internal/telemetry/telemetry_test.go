package telemetry

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

func TestCollectorSpanTree(t *testing.T) {
	c := NewCollector()
	wf := c.StartSpan(KindWorkflow, "mlpipeline", 0, 10)
	st := c.StartSpan(KindStage, "preprocess", wf, 10)
	inv := c.StartSpan(KindInvocation, "ml-preprocess", st, 10)
	c.EndSpan(inv, 12.5, Fields{"cold": 1, "exec": 2})
	c.EndSpan(st, 12.5, nil)
	c.Point(KindPoolDecision, "ml-preprocess", 0, 60, Fields{"target": 3})
	c.EndSpan(wf, 13, Fields{"invocations": 1})

	spans := c.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byKind := make(map[string]Span)
	for _, s := range spans {
		byKind[s.Kind] = s
	}
	if byKind[KindStage].Parent != byKind[KindWorkflow].ID {
		t.Fatalf("stage parent = %d, want workflow id %d", byKind[KindStage].Parent, byKind[KindWorkflow].ID)
	}
	if byKind[KindInvocation].Parent != byKind[KindStage].ID {
		t.Fatal("invocation not linked to stage")
	}
	if s := byKind[KindInvocation]; math.Abs(s.End-s.Start-2.5) > 1e-12 {
		t.Fatalf("invocation duration = %v, want 2.5", s.End-s.Start)
	}
	if byKind[KindInvocation].Fields["cold"] != 1 {
		t.Fatal("fields not attached at EndSpan")
	}
	if p := byKind[KindPoolDecision]; p.Start != p.End || p.Fields["target"] != 3 {
		t.Fatalf("point malformed: %+v", p)
	}
}

func TestCollectorEndUnknownSpan(t *testing.T) {
	c := NewCollector()
	c.EndSpan(0, 1, nil)  // zero id: no-op
	c.EndSpan(99, 1, nil) // unknown id: no-op
	id := c.StartSpan(KindInvocation, "f", 0, 0)
	c.EndSpan(id, 1, nil)
	c.EndSpan(id, 2, Fields{"late": 1}) // double end: no-op
	if got := c.Spans()[0].End; got != 1 {
		t.Fatalf("End = %v, want 1", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestJSONLRoundTripAndDeterminism(t *testing.T) {
	record := func() *Collector {
		c := NewCollector()
		wf := c.StartSpan(KindWorkflow, "w", 0, 0)
		for i := 0; i < 3; i++ {
			s := c.StartSpan(KindStage, "s", wf, float64(i))
			c.EndSpan(s, float64(i)+0.5, Fields{"exec": 0.5, "cold": float64(i % 2)})
		}
		c.EndSpan(wf, 3, nil)
		return c
	}
	var b1, b2 bytes.Buffer
	if err := record().WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := record().WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical recordings produced different JSONL bytes")
	}
	spans, err := ReadJSONL(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 4 || spans[0].Kind != KindWorkflow {
		t.Fatalf("round trip lost spans: %+v", spans)
	}
	if spans[1].Fields["exec"] != 0.5 {
		t.Fatal("round trip lost fields")
	}
}

func TestHistogramQuantilesVsExact(t *testing.T) {
	h := NewHistogram(DefaultBucketLo, DefaultBucketGrowth, DefaultBucketCount)
	// Deterministic skewed sample spanning several decades.
	var xs []float64
	v := 0.004
	for i := 0; i < 2000; i++ {
		xs = append(xs, v)
		v *= 1.0031
		h.Observe(xs[i])
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := sorted[int(q*float64(len(sorted)-1))]
		got := h.Quantile(q)
		// Error bounded by one bucket's growth factor.
		if got < exact/DefaultBucketGrowth || got > exact*DefaultBucketGrowth {
			t.Fatalf("q%v = %v, exact %v: outside one-bucket tolerance", q, got, exact)
		}
	}
	if h.Count() != 2000 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.Sum() / float64(h.Count()); math.Abs(m-meanOf(xs)) > 1e-9 {
		t.Fatalf("mean = %v, want %v", m, meanOf(xs))
	}
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram(1, 2, 4) // edges 1,2,4,8
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(3)
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("single value p50 = %v, want clamped to 3", got)
	}
	// Underflow and overflow land in the outermost buckets.
	h.Observe(0.001)
	h.Observe(100)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantile(0); got != 0.001 {
		t.Fatalf("q0 = %v, want min", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v, want max", got)
	}
	s := h.snapshot()
	if s.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1", s.Overflow)
	}
	h.Observe(math.NaN())
	if h.Count() != 3 {
		t.Fatal("NaN should be dropped")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(1, 2, 4) // edges 1,2,4,8
	for _, v := range []float64{1, 2, 4, 8} {
		h.Observe(v) // exact edges are inclusive upper bounds
	}
	s := h.snapshot()
	if s.Overflow != 0 {
		t.Fatalf("edge values overflowed: %+v", s)
	}
	if len(s.Buckets) != 4 {
		t.Fatalf("buckets = %+v, want one value per bucket", s.Buckets)
	}
	for _, b := range s.Buckets {
		if b.N != 1 {
			t.Fatalf("bucket %v holds %d, want 1", b.LE, b.N)
		}
	}
}

func TestRegistryHandlesAndNilSafety(t *testing.T) {
	var nilReg *Registry
	if nilReg.Counter("x") != nil || nilReg.Gauge("x") != nil || nilReg.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// Nil instruments: every method is a no-op.
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	c.Inc()
	g.Set(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if !bytes.Contains(mustJSON(t, nilReg), []byte("counters")) {
		t.Fatal("nil registry snapshot should still be valid JSON")
	}

	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Fatal("counter handle not cached")
	}
	reg.Counter("a").Add(2.5)
	reg.Gauge("b").Set(7)
	reg.Histogram("lat").Observe(0.2)
	s := reg.Snapshot()
	if s.Counters["a"] != 2.5 || s.Gauges["b"] != 7 || s.Histograms["lat"].Count != 1 {
		t.Fatalf("snapshot wrong: %+v", s)
	}
}

func mustJSON(t *testing.T, r *Registry) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestSnapshotJSONDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		for _, n := range []string{"z.last", "a.first", "m.mid"} {
			r.Counter(n).Add(1)
			r.Gauge("g." + n).Set(2)
			r.Histogram("h." + n).Observe(0.5)
		}
		return r
	}
	b1 := mustJSON(t, build())
	b2 := mustJSON(t, build())
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical registries produced different snapshot bytes")
	}
}

// TestNilCollectorAllocBudget pins tracing off: a nil collector is
// disabled, opens no span, accepts EndSpan for any id and Point, and none
// of it allocates.
func TestNilCollectorAllocBudget(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("a nil collector must report disabled")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if id := c.StartSpan(KindWorkflow, "w", 0, 0); id != 0 {
			t.Fatalf("nil StartSpan = %d, want 0", id)
		}
		c.EndSpan(0, 1, nil)
		c.EndSpan(7, 2, nil)
		c.Point(KindPoolDecision, "p", 0, 3, nil)
	})
	if allocs != 0 {
		t.Fatalf("nil collector path allocates %.1f per run, want 0", allocs)
	}
}
