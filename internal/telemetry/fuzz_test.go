package telemetry

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadJSONL drives arbitrary bytes through the span-stream reader — the
// boundary aquatrace and the trace tests read dumps through. The contract
// under fuzz: ReadJSONL never panics, and a stream it accepts survives
// WriteJSONL → ReadJSONL unchanged (an absent and an empty fields map are
// the same span), with the second write byte-equal to the first. The
// committed corpus in testdata/fuzz/FuzzReadJSONL holds a valid dump,
// values concatenated without newlines, null and {} spans, empty and
// wrong-typed fields, truncated JSON, duplicate keys, -0 and huge numbers
// and odd strings.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := writeSpans(t, spans)
		again, err := ReadJSONL(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-reading a written stream: %v\n%s", err, first)
		}
		if len(again) != len(spans) {
			t.Fatalf("%d spans re-read as %d", len(spans), len(again))
		}
		for i := range spans {
			if !sameSpan(spans[i], again[i]) {
				t.Fatalf("span %d: %+v re-read as %+v", i, spans[i], again[i])
			}
		}
		if second := writeSpans(t, again); !bytes.Equal(first, second) {
			t.Fatalf("second write differs:\n%s\n%s", first, second)
		}
	})
}

func writeSpans(t *testing.T, spans []Span) []byte {
	t.Helper()
	c := NewCollector()
	for _, sp := range spans {
		setRecord(c, c.push(record{}), sp)
	}
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatalf("writing %d accepted spans: %v", len(spans), err)
	}
	return buf.Bytes()
}

// setRecord overwrites record i with sp, its fields copied into the arena
// as EndSpan copies them.
func setRecord(c *Collector, i int, sp Span) {
	*recordAt(c.chunks, i) = record{id: sp.ID, parent: sp.Parent, kind: sp.Kind, name: sp.Name,
		start: sp.Start, end: sp.End, fields: c.copyFields(sp.Fields)}
}

// sameSpan compares floats bit for bit, so -0 and 0 differ.
func sameSpan(a, b Span) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.ID != b.ID || a.Parent != b.Parent || a.Kind != b.Kind || a.Name != b.Name ||
		!same(a.Start, b.Start) || !same(a.End, b.End) || len(a.Fields) != len(b.Fields) {
		return false
	}
	for k, v := range a.Fields {
		w, ok := b.Fields[k]
		if !ok || !same(v, w) {
			return false
		}
	}
	return true
}
