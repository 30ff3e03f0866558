package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// referenceJSONL is the span writer appendSpanJSON replaced: encoding/json's
// Encoder (HTML escaping on) applied to each materialised Span.
func referenceJSONL(c *Collector) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range c.Spans() {
		if err := enc.Encode(&sp); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

func collectorOf(spans ...Span) *Collector {
	c := NewCollector()
	for _, sp := range spans {
		setRecord(c, c.push(record{}), sp)
	}
	return c
}

// checkAgainstReference fails unless WriteJSONL and the reference agree:
// byte-equal output, or both refusing the stream.
func checkAgainstReference(t *testing.T, c *Collector) {
	t.Helper()
	want, wantErr := referenceJSONL(c)
	var got bytes.Buffer
	gotErr := c.WriteJSONL(&got)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("WriteJSONL error %v, encoding/json error %v", gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSONL differs from encoding/json:\ngot:  %q\nwant: %q", got.Bytes(), want)
	}
}

// TestWriteJSONLMatchesReference holds the hand-written span writer to
// encoding/json byte for byte on the values where their rules are easy to
// get wrong: float formatting at both exponent cut-offs, signed zero and
// subnormals; HTML-safe escaping, the line separators and invalid UTF-8 in
// strings (map keys included); the omitempty fields; and refusal of NaN and
// ±Inf wherever a float sits.
func TestWriteJSONLMatchesReference(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 2.5, 1e-6, 9.99999e-7, 1e-7, -1e-7, 1.5e-10,
		1e20, 1e21, -1e21, 123456789012345678, 1e300, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3, 4.9406564584124654e-320,
	}
	names := []string{
		"", "plain", `<script>&amp;</script>`, "line\u2028para\u2029", "bad\xffutf8\xfe", "\xc3",
		"quote\" back\\ slash/", "ctl\x00\x01\x1f\x7f", "\b\f\n\r\t", "\u00e9\u65e5\u672c\U0001f642", "\ud7ff\ue000",
	}
	var spans []Span
	for i, v := range floats {
		spans = append(spans, Span{ID: SpanID(i + 1), Kind: KindInvocation, Name: "f", Start: v, End: -v,
			Fields: Fields{"v": v, "neg": -v, "half": v / 2}})
	}
	for i, s := range names {
		spans = append(spans, Span{ID: SpanID(100 + i), Parent: SpanID(i), Kind: s, Name: s,
			Fields: Fields{s: 1, s + "<": 2, "&" + s: 3}})
	}
	// Empty name, parent 0, no fields; an empty (not nil) map; a huge ID.
	spans = append(spans,
		Span{ID: 200, Kind: KindStage},
		Span{ID: 201, Kind: KindStage, Fields: Fields{}},
		Span{ID: math.MaxUint64, Parent: math.MaxUint64 - 1, Kind: KindWorkflow, Name: "w", Start: 3, End: 4})
	t.Run("values", func(t *testing.T) { checkAgainstReference(t, collectorOf(spans...)) })

	// The live API, not just stored records: open spans, points and
	// ended spans with fields.
	t.Run("recorded", func(t *testing.T) {
		c := NewCollector()
		wf := c.StartSpan(KindWorkflow, "app<1>", 0, 0.25)
		st := c.StartSpan(KindStage, "s&0", wf, 1e-9)
		c.Point(KindRetry, "f\u2028", st, 1e22, Fields{"attempt": 1, "backoff_s": 3e-7})
		c.EndSpan(st, 7, Fields{"invocations": 3})
		c.StartSpan(KindInvocation, "open", st, 8)
		checkAgainstReference(t, c)
	})

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			what string
			sp   Span
		}{
			{"start", Span{ID: 1, Kind: "k", Start: bad}},
			{"end", Span{ID: 1, Kind: "k", End: bad}},
			{"field", Span{ID: 1, Kind: "k", Fields: Fields{"a": 1, "b": bad}}},
		} {
			t.Run(fmt.Sprintf("%s=%v", tc.what, bad), func(t *testing.T) {
				c := collectorOf(Span{ID: 1, Kind: "ok"}, tc.sp)
				if _, err := referenceJSONL(c); err == nil {
					t.Fatalf("encoding/json accepted %v", bad)
				}
				if err := c.WriteJSONL(&bytes.Buffer{}); err == nil {
					t.Fatalf("WriteJSONL accepted %s %v", tc.what, bad)
				}
			})
		}
	}
}

// FuzzWriteJSONL compares WriteJSONL with encoding/json on arbitrary
// strings, floats and IDs: equal bytes, or an error from both. The committed
// corpus in testdata/fuzz/FuzzWriteJSONL holds HTML metacharacters, U+2028,
// invalid UTF-8, -0, the exponent cut-offs, a subnormal and NaN.
func FuzzWriteJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, name, key string, start, val float64, id, parent uint64) {
		checkAgainstReference(t, collectorOf(
			Span{ID: SpanID(id), Parent: SpanID(parent), Kind: kind, Name: name, Start: start, End: val,
				Fields: Fields{key: val, "z" + key: start}},
			Span{ID: SpanID(id) + 1, Kind: key},
		))
	})
}
