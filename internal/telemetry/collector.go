package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"aquatope/internal/checkpoint"
)

// Collector buffers every span in memory for export. Span IDs are assigned
// sequentially in StartSpan/Point call order, which makes the exported
// stream deterministic for a deterministic simulation. It is safe for
// concurrent use, although the simulator itself is single-goroutine.
//
// A nil *Collector is tracing off: Enabled reports false, StartSpan returns
// the zero SpanID and EndSpan and Point do nothing, so subsystems hold a
// *Collector and call it unconditionally. All times are simulation seconds
// except where a subsystem has no clock (the BO engine uses its iteration
// index).
//
// Spans are stored as records in fixed-size chunks, and their fields as
// key-sorted runs of (key, value) pairs in a chunked field arena, so a
// growing collector never copies what it already holds and recording a
// span allocates nothing but, now and then, a fresh chunk.
type Collector struct {
	mu     sync.Mutex
	chunks [][]record // recordChunk records each; all full but the last
	n      int        // records held
	// arena is the field arena's current chunk. A span's fields are a
	// window of one chunk; a full chunk lives on through the records that
	// point into it.
	arena []field
	byID  map[SpanID]int // open spans → record index
	next  SpanID

	// The checkpoint view (SnapshotTo): completed records form an
	// append-only log in completion order. done holds the indices completed
	// since the last snapshot; sealed is the log's position before them.
	done   []int
	sealed checkpoint.Position
	// SnapshotTo's scratch: the record encoder and the open-span list.
	rec  checkpoint.Encoder
	open []int
}

const (
	recordChunkShift = 10
	recordChunk      = 1 << recordChunkShift // records per chunk
	fieldChunk       = 4096                  // (key, value) pairs per arena chunk
)

// field is one span attribute as the arena holds it.
type field struct {
	key string
	val float64
}

// record is one span as the collector stores it: a Span whose fields are a
// key-sorted window of the field arena.
type record struct {
	id, parent SpanID
	kind, name string
	start, end float64
	fields     []field
}

// span materialises the record as a Span with a Fields map (nil when the
// span has no fields).
func (r *record) span() Span {
	sp := Span{ID: r.id, Parent: r.parent, Kind: r.kind, Name: r.name, Start: r.start, End: r.end}
	if len(r.fields) > 0 {
		sp.Fields = make(Fields, len(r.fields))
		for _, f := range r.fields {
			sp.Fields[f.key] = f.val
		}
	}
	return sp
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byID: make(map[SpanID]int), next: 1}
}

// recordAt returns record i of a chunk list.
func recordAt(chunks [][]record, i int) *record {
	return &chunks[i>>recordChunkShift][i&(recordChunk-1)]
}

// push appends r and returns its index. A full chunk is never copied: the
// next record starts a new one. Caller holds the lock.
func (c *Collector) push(r record) int {
	i := c.n
	if i&(recordChunk-1) == 0 {
		c.chunks = append(c.chunks, make([]record, recordChunk))
	}
	*recordAt(c.chunks, i) = r
	c.n++
	return i
}

// reserve takes the arena's next n slots, starting a new chunk when the
// current one cannot hold them. Caller holds the lock.
func (c *Collector) reserve(n int) []field {
	used := len(c.arena)
	if used+n > cap(c.arena) {
		c.arena, used = make([]field, 0, max(fieldChunk, n)), 0
	}
	c.arena = c.arena[:used+n]
	return c.arena[used : used+n : used+n]
}

// copyFields copies f into the arena sorted by key and returns the window
// that holds it, nil when f is empty. Caller holds the lock.
func (c *Collector) copyFields(f Fields) []field {
	if len(f) == 0 {
		return nil
	}
	w := c.reserve(len(f))
	i := 0
	for k, v := range f {
		w[i] = field{k, v}
		i++
	}
	// Insertion sort: a span carries a handful of fields.
	for i := 1; i < len(w); i++ {
		for j := i; j > 0 && w[j].key < w[j-1].key; j-- {
			w[j], w[j-1] = w[j-1], w[j]
		}
	}
	return w
}

// Enabled reports whether spans are being recorded. Hot paths use it to
// skip filling Fields maps when tracing is off.
func (c *Collector) Enabled() bool { return c != nil }

// StartSpan opens a span; parent 0 makes it a root. On a nil collector it
// returns the zero SpanID.
func (c *Collector) StartSpan(kind, name string, parent SpanID, at float64) SpanID {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.next
	c.next++
	c.byID[id] = c.push(record{id: id, parent: parent, kind: kind, name: name, start: at, end: at})
	return id
}

// EndSpan closes a span, attaching fields (may be nil). It copies fields:
// the caller keeps the map and may clear and refill it for the next span.
// Ending an unknown or zero ID, or any ID on a nil collector, is a no-op.
func (c *Collector) EndSpan(id SpanID, at float64, fields Fields) {
	if c == nil || id == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.byID[id]
	if !ok {
		return
	}
	delete(c.byID, id)
	r := recordAt(c.chunks, i)
	r.end = at
	r.fields = c.copyFields(fields)
	c.done = append(c.done, i)
}

// Point records an instantaneous event; like EndSpan it copies fields. On
// a nil collector it does nothing.
func (c *Collector) Point(kind, name string, parent SpanID, at float64, fields Fields) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.next
	c.next++
	r := record{id: id, parent: parent, kind: kind, name: name, start: at, end: at, fields: c.copyFields(fields)}
	c.done = append(c.done, c.push(r))
}

// Len returns the number of recorded spans (open or closed).
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Spans returns a copy of the recorded spans in creation order.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, c.n)
	for i := range out {
		out[i] = recordAt(c.chunks, i).span()
	}
	return out
}

// WriteJSONL writes one JSON object per span, in creation order, byte for
// byte as encoding/json encodes a Span (appendSpanJSON). Open spans are
// emitted with End == Start. A NaN or infinite time or field value is an
// error.
func (c *Collector) WriteJSONL(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	bw := bufio.NewWriter(w)
	for i := 0; i < c.n; i++ {
		line, err := appendSpanJSON(bw.AvailableBuffer(), recordAt(c.chunks, i))
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONLFile writes the span stream to path, creating or truncating it.
func (c *Collector) WriteJSONLFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteJSONL(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return fmt.Errorf("telemetry: writing %s: %w", path, err)
	}
	return f.Close()
}

// ReadJSONL parses a span stream written by WriteJSONL — the replay side of
// the trace format (see DESIGN.md for a summary-table recipe).
func ReadJSONL(r io.Reader) ([]Span, error) {
	var out []Span
	dec := json.NewDecoder(r)
	for {
		var sp Span
		if err := dec.Decode(&sp); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, sp)
	}
}
