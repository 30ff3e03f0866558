package telemetry

import (
	"bytes"
	"sort"

	"aquatope/internal/checkpoint"
)

// SnapshotTo serializes the registry as its canonical JSON export (map keys
// sorted by encoding/json, so equal state yields equal bytes). Telemetry is
// replay-derived state: the restorer re-derives counters by re-running the
// input stream and byte-compares this section to prove the rebuilt registry
// matches the checkpointed one. (Named SnapshotTo because Snapshot is the
// registry's long-standing JSON export API.)
func (r *Registry) SnapshotTo(enc *checkpoint.Encoder) {
	enc.String("telemetry.registry")
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		// The JSON encoder cannot fail on Snapshot's map/float payload;
		// record the error text defensively so a mismatch surfaces.
		enc.String("error: " + err.Error())
		return
	}
	enc.Blob(buf.Bytes())
}

// SnapshotTo writes the span log as a position, not as content: a
// checkpoint would otherwise re-serialize the whole history at every
// boundary. Restore re-derives spans by replay (DESIGN.md §15), so a digest
// proves what the bytes would.
//
// The span table itself is not append-only — an open span's End and Fields
// arrive later, and a chaos.fault span can stay open for a third of the
// run — but the sequence of completed records is: a Point when recorded, a
// span when EndSpan closes it, a merged-in span when Merge appends it.
// SnapshotTo folds the records completed since the last call into a running
// SHA-256 (each record is encoded once per run) and emits the total span
// count, the completed log's position, and the still-open spans verbatim in
// ID order. Completion order belongs to the run, not to when snapshots were
// taken, so a restoring server that snapshots once produces the bytes the
// original produced after many; calls with no tracer activity in between
// emit equal bytes. Only this memo changes — the spans do not.
func (c *Collector) SnapshotTo(enc *checkpoint.Encoder) {
	enc.String("telemetry.spans")
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	rec := checkpoint.NewEncoder()
	for _, i := range c.done {
		rec.Reset()
		keys = appendRecord(rec, &c.spans[i], keys)
		c.sealed.Write(rec.Bytes(), 1)
	}
	c.done = c.done[:0]

	open := make([]int, 0, len(c.byID))
	for _, i := range c.byID {
		open = append(open, i)
	}
	sort.Ints(open)
	enc.Int(len(c.spans))
	c.sealed.Snapshot(enc)
	enc.Int(len(open))
	for _, i := range open {
		keys = appendRecord(enc, &c.spans[i], keys)
	}
}

// appendRecord appends a span's canonical record: every value its JSONL
// dump line shows, length-prefixed or fixed-width, fields in sorted key
// order — so changing any byte of the dump line changes the record. keys is
// scratch space, returned for reuse.
func appendRecord(enc *checkpoint.Encoder, sp *Span, keys []string) []string {
	enc.U64(uint64(sp.ID))
	enc.U64(uint64(sp.Parent))
	enc.String(sp.Kind)
	enc.String(sp.Name)
	enc.F64(sp.Start)
	enc.F64(sp.End)
	keys = keys[:0]
	for k := range sp.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc.U64(uint64(len(keys)))
	for _, k := range keys {
		enc.String(k)
		enc.F64(sp.Fields[k])
	}
	return keys
}
