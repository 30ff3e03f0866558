package serve

import (
	"bytes"
	"errors"
	"io"
	"math"
	"regexp"
	"strconv"
	"testing"
)

var streamLineErr = regexp.MustCompile(`^serve: stream line (\d+): `)

// FuzzSourceNext drives arbitrary bytes through the stream decoder — the
// serving loop's input boundary. The contract under fuzz: Next never
// panics; a record it accepts survives MarshalLine → Next unchanged (the
// journal re-reads its own lines on restore); and every error names the
// line it stopped at. The committed corpus in testdata/fuzz/FuzzSourceNext
// holds a valid stream, blank and CRLF lines, truncated JSON, wrong types,
// non-objects, null and {} (records with no app), NaN / negative / huge
// timestamps and odd strings; the line past the scanner's 1 MiB limit is
// added here rather than committed.
func FuzzSourceNext(f *testing.F) {
	long := append(bytes.Repeat([]byte("x"), 1<<20+1), '\n')
	f.Add(append([]byte("{\"t\":1,\"app\":\"a\"}\n"), long...))

	f.Fuzz(func(t *testing.T, data []byte) {
		lines := bytes.Count(data, []byte{'\n'}) + 1
		src := NewSource(bytes.NewReader(data))
		for accepted := 0; ; accepted++ {
			rec, err := src.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				m := streamLineErr.FindStringSubmatch(err.Error())
				if m == nil {
					t.Fatalf("error does not name its line: %v", err)
				}
				if n, _ := strconv.Atoi(m[1]); n <= accepted || n > lines {
					t.Fatalf("error names line %d after %d accepted records of a %d-line input: %v", n, accepted, lines, err)
				}
				return
			}
			line, err := rec.MarshalLine()
			if err != nil {
				t.Fatalf("accepted record %+v does not marshal: %v", rec, err)
			}
			again, err := NewSource(bytes.NewReader(append(line, '\n'))).Next()
			if err != nil || again.App != rec.App || math.Float64bits(again.T) != math.Float64bits(rec.T) {
				t.Fatalf("record %+v re-read from its own line %q as %+v (err %v)", rec, line, again, err)
			}
		}
	})
}

// TestSourceErrorsNameLine pins the exact line numbers the fuzz target only
// bounds: blank lines count, and a line the scanner refuses is numbered
// like one the JSON decoder refuses.
func TestSourceErrorsNameLine(t *testing.T) {
	ok := "{\"t\":1,\"app\":\"a\"}\n"
	for _, tc := range []struct {
		name, in string
		line     string
	}{
		{"bad-json-after-blanks", "\n\n{bad\n", "3"},
		{"wrong-type", ok + ok + "{\"t\":\"x\"}\n", "3"},
		{"truncated-tail", ok + "{\"t\":2,\"ap", "2"},
		{"null", ok + "null\n", "2"},
		{"no-app", ok + "\n{\"t\":5}\n", "3"},
		{"over-long-line", ok + "\n" + string(bytes.Repeat([]byte("x"), 1<<20+1)) + "\n", "3"},
	} {
		src := NewSource(bytes.NewReader([]byte(tc.in)))
		var err error
		for err == nil {
			_, err = src.Next()
		}
		if m := streamLineErr.FindStringSubmatch(err.Error()); m == nil || m[1] != tc.line {
			t.Errorf("%s: got %q, want an error naming line %s", tc.name, err, tc.line)
		}
	}
}
