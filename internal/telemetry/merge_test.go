package telemetry

import (
	"bytes"
	"testing"
)

// recordTree plays a small deterministic span tree into t.
func recordTree(t *Collector, base float64) {
	w := t.StartSpan(KindWorkflow, "wf", 0, base)
	s := t.StartSpan(KindStage, "stage", w, base+1)
	t.Point(KindRetry, "retry", s, base+2, Fields{"attempt": 1})
	t.EndSpan(s, base+3, nil)
	t.EndSpan(w, base+4, Fields{"latency_s": 4})
}

func TestCollectorMergeRebasesIDs(t *testing.T) {
	// Serial reference: both trees recorded into one collector.
	serial := NewCollector()
	recordTree(serial, 0)
	recordTree(serial, 100)

	// Split: each tree in its own collector, merged in order.
	a, b := NewCollector(), NewCollector()
	recordTree(a, 0)
	recordTree(b, 100)
	merged := NewCollector()
	merged.Merge(a)
	merged.Merge(b)

	var want, got bytes.Buffer
	if err := serial.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("merged stream differs from serial:\nserial:\n%sgot:\n%s", want.String(), got.String())
	}

	// IDs stay dense and parents point inside the merged stream.
	spans := merged.Spans()
	for i, sp := range spans {
		if sp.ID != SpanID(i+1) {
			t.Fatalf("span %d has id %d, want dense numbering", i, sp.ID)
		}
		if sp.Parent >= sp.ID {
			t.Fatalf("span %d parent %d not before it", sp.ID, sp.Parent)
		}
	}
}

func TestCollectorMergeContinuesIDSequence(t *testing.T) {
	dst := NewCollector()
	src := NewCollector()
	recordTree(src, 0)
	dst.Merge(src)
	// New spans started after a merge must continue past the merged IDs.
	id := dst.StartSpan(KindInvocation, "inv", 0, 9)
	if int(id) != len(src.Spans())+1 {
		t.Fatalf("post-merge span id = %d, want %d", id, len(src.Spans())+1)
	}
}

func TestRegistryMergeSemantics(t *testing.T) {
	a := NewRegistry()
	a.Counter("faas.cold_starts").Add(3)
	a.Gauge("pool.size").Set(7)
	a.Histogram("workflow.latency_s").Observe(0.5)
	a.Histogram("workflow.latency_s").Observe(2)

	b := NewRegistry()
	b.Counter("faas.cold_starts").Add(4)
	b.Counter("faas.invocations").Add(10)
	b.Gauge("pool.size").Set(5)
	b.Histogram("workflow.latency_s").Observe(8)

	dst := NewRegistry()
	dst.Merge(a)
	dst.Merge(b)

	if v := dst.Counter("faas.cold_starts").Value(); v != 7 {
		t.Fatalf("counter merge = %v, want 7", v)
	}
	if v := dst.Counter("faas.invocations").Value(); v != 10 {
		t.Fatalf("counter merge = %v, want 10", v)
	}
	// Gauges are last-write-wins in merge order, like a serial run.
	if v := dst.Gauge("pool.size").Value(); v != 5 {
		t.Fatalf("gauge merge = %v, want 5", v)
	}
	h := dst.Histogram("workflow.latency_s")
	if h.Count() != 3 || h.Sum() != 10.5 {
		t.Fatalf("histogram merge count=%d sum=%v, want 3/10.5", h.Count(), h.Sum())
	}

	// The merged snapshot must match a serially-built registry exactly.
	serial := NewRegistry()
	serial.Counter("faas.cold_starts").Add(3)
	serial.Counter("faas.cold_starts").Add(4)
	serial.Counter("faas.invocations").Add(10)
	serial.Gauge("pool.size").Set(7)
	serial.Gauge("pool.size").Set(5)
	for _, v := range []float64{0.5, 2, 8} {
		serial.Histogram("workflow.latency_s").Observe(v)
	}
	var want, got bytes.Buffer
	if err := serial.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := dst.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("merged snapshot differs from serial:\n%s\nvs\n%s", want.String(), got.String())
	}
}

func TestRegistryMergeLayoutMismatchPanics(t *testing.T) {
	a := NewRegistry()
	a.HistogramBuckets("h", 1e-3, 2, 8).Observe(1)
	b := NewRegistry()
	b.HistogramBuckets("h", 1e-2, 2, 8).Observe(1)
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched histogram layouts should panic")
		}
	}()
	a.Merge(b)
}

func TestMergeNilSafety(t *testing.T) {
	var nilC *Collector
	nilC.Merge(NewCollector()) // must not panic
	c := NewCollector()
	c.Merge(nil)
	var nilR *Registry
	nilR.Merge(NewRegistry())
	r := NewRegistry()
	r.Merge(nil)
}
