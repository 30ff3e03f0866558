package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecode drives arbitrary bytes through the container parser. The
// contract under fuzz: Decode never panics, and anything it accepts
// re-encodes to the exact input (so a decoded File can stand in for the
// file it came from — no silent partial restore). The committed seed corpus
// in testdata/fuzz/FuzzDecode covers a valid file plus truncated,
// bit-flipped and version-skewed variants, and seed-v1-refused and
// seed-v2-refused: the valid file as formats 1 and 2 wrote it, which must
// now be refused; `go test -fuzz=FuzzDecode ./internal/checkpoint` explores
// from there.
func FuzzDecode(f *testing.F) {
	valid := sampleFile().Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("AQCP"))
	f.Add([]byte("AQCP\x01\x00\x00\x00"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	empty := (&File{}).Encode()
	f.Add(empty)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			if got != nil {
				t.Fatal("Decode returned both a file and an error")
			}
			return
		}
		if !bytes.Equal(got.Encode(), data) {
			t.Fatalf("accepted input does not re-encode identically (%d bytes)", len(data))
		}
	})
}

// FuzzDecoder drives arbitrary bytes through every primitive read to prove
// the value codec never panics regardless of read sequence. The reads are
// the ones the program performs on bytes that came off disk (the serve
// header).
func FuzzDecoder(f *testing.F) {
	enc := NewEncoder()
	enc.U64(99)
	enc.String("seed")
	enc.F64s([]float64{1, 2})
	f.Add(enc.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		d.U64()
		d.I64()
		d.Bool()
		d.F64()
		_ = d.String()
		d.Blob()
		d.Expect("x")
		d.Done()
	})
}

// TestCorpusFollowsVersion keeps the committed corpus honest across format
// bumps: the fuzz target passes whether a seed is accepted or refused, so a
// stale seed-valid would go unnoticed. seed-valid must be today's sample
// file; seed-v1-refused and seed-v2-refused, the ones formats 1 and 2
// wrote, must be refused by version.
func TestCorpusFollowsVersion(t *testing.T) {
	seed := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecode", name))
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return []byte(s)
	}
	if !bytes.Equal(seed("seed-valid"), sampleFile().Encode()) {
		t.Error("seed-valid is not the current encoding of sampleFile(); regenerate the corpus")
	}
	for _, v := range []string{"1", "2"} {
		name := "seed-v" + v + "-refused"
		_, err := Decode(seed(name))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported snapshot version "+v+" ") {
			t.Errorf("%s: got %v, want a version-%s refusal", name, err, v)
		}
	}
}
