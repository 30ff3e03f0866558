package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func sampleFile() *File {
	h := NewEncoder()
	h.I64(42)
	h.F64(3600)
	h.Int(60)
	f := &File{Header: h.Bytes()}
	a := NewEncoder()
	a.String("gp")
	a.F64s([]float64{1, 2.5, math.Inf(1), math.Copysign(0, -1)})
	f.AddSection("bo.engine.chain", a.Bytes())
	b := NewEncoder()
	b.U64(7)
	b.Bools([]bool{true, false, true})
	f.AddSection("sim.engine", b.Bytes())
	f.SortSections()
	return f
}

func TestCodecRoundTrip(t *testing.T) {
	enc := NewEncoder()
	enc.U64(0)
	enc.U64(1 << 62)
	enc.I64(-12345)
	enc.Int(7)
	enc.Bool(true)
	enc.Bool(false)
	enc.F64(math.NaN())
	enc.F64(math.Copysign(0, -1))
	enc.F64(1.5e308)
	enc.String("hello world")
	enc.String("")
	enc.Blob([]byte{0, 255, 3})
	enc.F64s([]float64{1, 2, 3})
	enc.F64s(nil)
	enc.Bools([]bool{true})
	enc.String("marker")

	dec := NewDecoder(enc.Bytes())
	if got := dec.U64(); got != 0 {
		t.Fatalf("u64: %d", got)
	}
	if got := dec.U64(); got != 1<<62 {
		t.Fatalf("u64: %d", got)
	}
	if got := dec.I64(); got != -12345 {
		t.Fatalf("i64: %d", got)
	}
	if got := dec.Int(); got != 7 {
		t.Fatalf("int: %d", got)
	}
	if !dec.Bool() || dec.Bool() {
		t.Fatal("bools")
	}
	if got := dec.F64(); !math.IsNaN(got) {
		t.Fatalf("nan: %v", got)
	}
	if got := dec.F64(); got != 0 || !math.Signbit(got) {
		t.Fatalf("-0: %v", got)
	}
	if got := dec.F64(); got != 1.5e308 {
		t.Fatalf("f64: %v", got)
	}
	if got := dec.String(); got != "hello world" {
		t.Fatalf("string: %q", got)
	}
	if got := dec.String(); got != "" {
		t.Fatalf("string: %q", got)
	}
	if got := dec.Blob(); !bytes.Equal(got, []byte{0, 255, 3}) {
		t.Fatalf("blob: %v", got)
	}
	// Slices are written, never read back: a count, then the elements.
	if n, a, b, c := dec.U64(), dec.F64(), dec.F64(), dec.F64(); n != 3 || a != 1 || b != 2 || c != 3 {
		t.Fatalf("f64s: %d %v %v %v", n, a, b, c)
	}
	if n := dec.U64(); n != 0 {
		t.Fatalf("empty f64s: count %d", n)
	}
	if n, v := dec.U64(), dec.Bool(); n != 1 || !v {
		t.Fatalf("bools: %d %v", n, v)
	}
	dec.Expect("marker")
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderStickyErrors(t *testing.T) {
	// Truncated float: error, then every later read is a zero value.
	dec := NewDecoder([]byte{1, 2, 3})
	if got := dec.F64(); got != 0 {
		t.Fatalf("truncated f64: %v", got)
	}
	if dec.err == nil {
		t.Fatal("expected error")
	}
	if got := dec.String(); got != "" {
		t.Fatalf("read after error: %q", got)
	}
	if got := dec.Blob(); got != nil {
		t.Fatalf("read after error: %v", got)
	}

	// Length prefix far beyond remaining input must fail, not allocate.
	enc := NewEncoder()
	enc.U64(1 << 40)
	dec = NewDecoder(enc.Bytes())
	if got := dec.Blob(); got != nil || dec.err == nil {
		t.Fatal("oversized length accepted")
	}

	// Invalid bool byte.
	dec = NewDecoder([]byte{7})
	dec.Bool()
	if dec.err == nil {
		t.Fatal("bad bool accepted")
	}

	// Marker mismatch.
	enc = NewEncoder()
	enc.String("alpha")
	dec = NewDecoder(enc.Bytes())
	dec.Expect("beta")
	if dec.err == nil {
		t.Fatal("marker mismatch accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	f := sampleFile()
	data := f.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Header, f.Header) {
		t.Fatal("header mismatch")
	}
	if len(got.Sections) != len(f.Sections) {
		t.Fatalf("section count %d != %d", len(got.Sections), len(f.Sections))
	}
	for i, s := range f.Sections {
		if got.Sections[i].Name != s.Name || !bytes.Equal(got.Sections[i].Data, s.Data) {
			t.Fatalf("section %d mismatch", i)
		}
	}
	if sec, ok := got.Section("sim.engine"); !ok || len(sec) == 0 {
		t.Fatal("lookup failed")
	}
	if _, ok := got.Section("absent"); ok {
		t.Fatal("phantom section")
	}
	// Deterministic encoding: re-encode of the decoded file is identical.
	if !bytes.Equal(got.Encode(), data) {
		t.Fatal("re-encode differs")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	base := sampleFile().Encode()

	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(base); n++ {
			if _, err := Decode(base[:n]); err == nil {
				t.Fatalf("accepted truncation to %d bytes", n)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		for i := 0; i < len(base); i++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), base...)
				mut[i] ^= 1 << bit
				if _, err := Decode(mut); err == nil {
					t.Fatalf("accepted bit flip at byte %d bit %d", i, bit)
				}
			}
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		mut := append([]byte(nil), base...)
		binary.LittleEndian.PutUint32(mut[4:], Version+1)
		// Re-seal the trailer CRC so only the version differs.
		binary.LittleEndian.PutUint32(mut[len(mut)-4:], crcOf(mut[:len(mut)-4]))
		_, err := Decode(mut)
		if err == nil {
			t.Fatal("accepted version skew")
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unexpected error type: %v", err)
		}
	})
	for _, v := range []uint32{1, 2} {
		t.Run(fmt.Sprintf("v%d-refused", v), func(t *testing.T) {
			// Format 1 stored the span log and latency lists as blobs and
			// format 2 whole component snapshots; their sections mean
			// something else, so an older file that is otherwise intact
			// must be refused by version, naming both.
			mut := append([]byte(nil), base...)
			binary.LittleEndian.PutUint32(mut[4:], v)
			binary.LittleEndian.PutUint32(mut[len(mut)-4:], crcOf(mut[:len(mut)-4]))
			_, err := Decode(mut)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("v%d file: got %v, want ErrCorrupt", v, err)
			}
			for _, want := range []string{fmt.Sprintf("version %d", v), "supported: 3"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
	t.Run("trailing-garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), base...), 0xAA)
		if _, err := Decode(mut); err == nil {
			t.Fatal("accepted trailing garbage")
		}
	})
	t.Run("duplicate-sections", func(t *testing.T) {
		f := &File{}
		f.AddSection("dup", []byte{1})
		f.AddSection("dup", []byte{2})
		if _, err := Decode(f.Encode()); err == nil {
			t.Fatal("accepted duplicate sections")
		}
	})
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.aqcp")
	f := sampleFile()
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), f.Encode()) {
		t.Fatal("round trip mismatch")
	}
	// Overwrite succeeds and leaves no temp droppings.
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	// A corrupted file on disk is rejected by ReadFile.
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("accepted corrupted file")
	}
}

// TestPositionIgnoresBatching: a Position is a function of the bytes and
// record count appended, not of how the appends were grouped — the property
// that lets a restoring server fold once what the original run folded at
// every boundary.
func TestPositionIgnoresBatching(t *testing.T) {
	var empty, once, pieces Position
	want := sha256.Sum256(nil)
	if empty.Count() != 0 || !bytes.Equal(empty.Sum(), want[:]) {
		t.Fatal("zero Position is not the empty log")
	}
	log := []byte("alpha\nbeta\ngamma\n")
	once.Write(log, 3)
	pieces.Write(log[:6], 1)
	pieces.Write(nil, 0)
	pieces.Sum() // reading the digest must not disturb it
	pieces.Write(log[6:], 2)
	want = sha256.Sum256(log)
	if pieces.Count() != 3 || !bytes.Equal(pieces.Sum(), want[:]) || !bytes.Equal(once.Sum(), want[:]) {
		t.Fatalf("batched position (%d, %x) differs from single write (%d, %x)", pieces.Count(), pieces.Sum(), once.Count(), once.Sum())
	}

	got, exp := NewEncoder(), NewEncoder()
	pieces.Snapshot(got)
	exp.Int(3)
	exp.Blob(want[:])
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("position snapshot %x, want count then digest %x", got.Bytes(), exp.Bytes())
	}
}
