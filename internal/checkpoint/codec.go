// Package checkpoint defines the versioned, deterministic snapshot format
// used by the crash-safe serving loop (internal/serve). It has three layers:
//
//   - Encoder/Decoder: an append-only binary codec over primitive values
//     (varints, IEEE-754 floats, strings, float slices). Encoding a value
//     sequence is a pure function of the values — no maps, no pointers, no
//     timestamps — so equal component state always produces equal bytes.
//     Every Decoder read is bounds-checked and returns the zero value after
//     the first error; malformed input can never panic a decoder.
//
//   - File: the AQCP container — magic, format version, a CRC-guarded
//     opaque header blob, and CRC-guarded named sections, with a whole-file
//     CRC trailer. Truncated, bit-flipped, or version-skewed files are
//     rejected by Decode with an error before any section is compared.
//
//   - Position: a place in an append-only log (record count + running
//     SHA-256), the form every history-proportional payload is stored in.
//
// A component contributes a fingerprint writer, Snapshot(*Encoder), and
// nothing else: restore is verified deterministic replay. internal/serve
// stores the SHA-256 of each snapshot as its section and compares it with
// the digest of the re-derived snapshot, so no section is ever decoded, let
// alone loaded back into a component. The Decoder therefore reads only the
// serve header and has no slice readers. A Snapshot must be
// read-only: serving writes checkpoints mid-run and a mutating snapshot
// would make the checkpointed run diverge from an unmonitored one.
// (Advancing a Position's running digest over an append-only log is not a
// mutation in that sense: no run can observe it.)
//
// The package deliberately depends only on the standard library so every
// internal package can import it without cycles.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoder accumulates a deterministic byte encoding of primitive values.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the accumulated encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the encoder, keeping its buffer for reuse; slices Bytes
// returned earlier are overwritten by what is encoded next.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// U64 appends an unsigned varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a zigzag-encoded signed varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends the 8 little-endian bytes of the IEEE-754 representation.
// NaN payloads and signed zeros round-trip exactly.
func (e *Encoder) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// F64s appends a length-prefixed float64 slice. A nil slice encodes
// identically to an empty one.
func (e *Encoder) F64s(v []float64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Bools appends a length-prefixed bool slice.
func (e *Encoder) Bools(v []bool) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.Bool(x)
	}
}

// ErrCorrupt is the base error for any malformed encoding; all decoder and
// file-format errors wrap it, so callers can errors.Is against a single
// sentinel.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Decoder reads values encoded by Encoder. Errors are sticky: after the
// first failure every read returns the zero value and Done reports the
// original cause. Decoder never panics on malformed input.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Done returns an error when decoding failed or unread bytes remain — a
// trailing-garbage check.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return corrupt("%d trailing bytes", len(d.data)-d.off)
	}
	return nil
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corrupt("offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// U64 reads an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// I64 reads a zigzag-encoded signed varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads an int encoded by Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads a 0/1 byte; any other value is an error.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.data) {
		d.fail("truncated bool")
		return false
	}
	b := d.data[d.off]
	if b > 1 {
		d.fail("bad bool byte %d", b)
		return false
	}
	d.off++
	return b == 1
}

// F64 reads an 8-byte IEEE-754 float.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}

// count validates a byte-length prefix against the bytes actually
// remaining, so corrupt lengths fail fast instead of attempting enormous
// allocations.
func (d *Decoder) count() (int, bool) {
	n := d.U64()
	if d.err != nil {
		return 0, false
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail("length %d exceeds remaining input", n)
		return 0, false
	}
	return int(n), true
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n, ok := d.count()
	if !ok {
		return ""
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s
}

// Blob reads a length-prefixed byte slice (copied out of the input).
func (d *Decoder) Blob() []byte {
	n, ok := d.count()
	if !ok {
		return nil
	}
	b := make([]byte, n)
	copy(b, d.data[d.off:d.off+n])
	d.off += n
	return b
}

// Expect reads a string and errors unless it equals want — a cheap marker
// check ("wrong bytes fed to wrong reader").
func (d *Decoder) Expect(want string) {
	got := d.String()
	if d.err == nil && got != want {
		d.fail("marker mismatch: got %q want %q", got, want)
	}
}
