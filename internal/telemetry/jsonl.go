package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// appendSpanJSON appends r's JSONL line — the bytes encoding/json's Encoder
// writes for the Span r materialises, newline included: struct fields in
// declaration order, parent, name and fields left out when empty, field keys
// in sorted order (the arena keeps them so), strings escaped HTML-safe and
// numbers by encoding/json's float rules. Like encoding/json it refuses a
// NaN or infinite value. TestWriteJSONLMatchesReference and FuzzWriteJSONL
// hold it to encoding/json.
func appendSpanJSON(b []byte, r *record) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, uint64(r.id), 10)
	if r.parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, uint64(r.parent), 10)
	}
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, r.kind)
	if r.name != "" {
		b = append(b, `,"name":`...)
		b = appendJSONString(b, r.name)
	}
	var ok bool
	b = append(b, `,"start":`...)
	if b, ok = appendJSONFloat(b, r.start); !ok {
		return b, unsupported(r.id, "start", r.start)
	}
	b = append(b, `,"end":`...)
	if b, ok = appendJSONFloat(b, r.end); !ok {
		return b, unsupported(r.id, "end", r.end)
	}
	if len(r.fields) > 0 {
		b = append(b, `,"fields":{`...)
		for i, f := range r.fields {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, f.key)
			b = append(b, ':')
			if b, ok = appendJSONFloat(b, f.val); !ok {
				return b, unsupported(r.id, "field "+strconv.Quote(f.key), f.val)
			}
		}
		b = append(b, '}')
	}
	return append(b, '}', '\n'), nil
}

func unsupported(id SpanID, what string, v float64) error {
	return fmt.Errorf("telemetry: span %d: %s is %v, which JSON cannot encode", id, what, v)
}

// appendJSONFloat appends v as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 on
// (with e-07 shortened to e-7). It reports false for NaN and ±Inf.
func appendJSONFloat(b []byte, v float64) ([]byte, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json quotes a string with
// HTML escaping on: the quote, the backslash and the control characters
// escaped (\b \f \n \r \t by name, the rest as \u00XX), the HTML
// metacharacters <, > and & as \u003c, \u003e and \u0026, the line and
// paragraph separators U+2028 and U+2029 as \u2028 and \u2029, and each
// byte of invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
