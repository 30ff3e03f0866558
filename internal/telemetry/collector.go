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
type Collector struct {
	mu    sync.Mutex
	spans []Span
	byID  map[SpanID]int // open spans → index in spans
	next  SpanID

	// The checkpoint view (SnapshotTo): completed records form an
	// append-only log in completion order. done holds the indices completed
	// since the last snapshot; sealed is the log's position before them.
	done   []int
	sealed checkpoint.Position
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byID: make(map[SpanID]int), next: 1}
}

// Enabled reports whether spans are being recorded. Hot paths use it to
// skip building Fields maps when tracing is off.
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
	c.byID[id] = len(c.spans)
	c.spans = append(c.spans, Span{ID: id, Parent: parent, Kind: kind, Name: name, Start: at, End: at})
	return id
}

// EndSpan closes a span, attaching fields (may be nil). It takes ownership
// of fields: the caller must not touch the map afterwards. Ending an unknown
// or zero ID, or any ID on a nil collector, is a no-op.
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
	sp := &c.spans[i]
	sp.End = at
	if len(fields) > 0 {
		sp.Fields = fields
	}
	c.done = append(c.done, i)
}

// Point records an instantaneous event; like EndSpan it takes ownership of
// fields. On a nil collector it does nothing.
func (c *Collector) Point(kind, name string, parent SpanID, at float64, fields Fields) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.next
	c.next++
	c.done = append(c.done, len(c.spans))
	c.spans = append(c.spans, Span{ID: id, Parent: parent, Kind: kind, Name: name, Start: at, End: at, Fields: fields})
}

// Len returns the number of recorded spans (open or closed).
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// Spans returns a copy of the recorded spans in creation order.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// WriteJSONL writes one JSON object per span, in creation order. Open spans
// are emitted with End == Start.
func (c *Collector) WriteJSONL(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for i := range c.spans {
		if err := enc.Encode(&c.spans[i]); err != nil {
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
