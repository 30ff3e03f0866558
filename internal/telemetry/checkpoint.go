package telemetry

import (
	"slices"

	"aquatope/internal/checkpoint"
)

// SnapshotTo serializes the registry as its canonical JSON export (map keys
// sorted by encoding/json, so equal state yields equal bytes), rendered into
// a buffer the registry keeps between calls. Telemetry is replay-derived
// state: the restorer re-derives counters by re-running the input stream and
// byte-compares this section to prove the rebuilt registry matches the
// checkpointed one. (Named SnapshotTo because Snapshot is the registry's
// long-standing JSON export API.)
func (r *Registry) SnapshotTo(enc *checkpoint.Encoder) {
	enc.String("telemetry.registry")
	if r == nil {
		r = NewRegistry() // snapshots as empty, as a nil registry does
	}
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	r.snap.Reset()
	if err := r.WriteJSON(&r.snap); err != nil {
		// The JSON encoder cannot fail on Snapshot's map/float payload;
		// record the error text defensively so a mismatch surfaces.
		enc.String("error: " + err.Error())
		return
	}
	enc.Blob(r.snap.Bytes())
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
	for _, i := range c.done {
		c.rec.Reset()
		appendRecord(&c.rec, recordAt(c.chunks, i))
		c.sealed.Write(c.rec.Bytes(), 1)
	}
	c.done = c.done[:0]

	c.open = c.open[:0]
	for _, i := range c.byID {
		c.open = append(c.open, i)
	}
	slices.Sort(c.open)
	enc.Int(c.n)
	c.sealed.Snapshot(enc)
	enc.Int(len(c.open))
	for _, i := range c.open {
		appendRecord(enc, recordAt(c.chunks, i))
	}
}

// appendRecord appends a span's canonical record: every value its JSONL
// dump line shows, length-prefixed or fixed-width, fields in sorted key
// order (the order the arena holds them in) — so changing any byte of the
// dump line changes the record.
func appendRecord(enc *checkpoint.Encoder, r *record) {
	enc.U64(uint64(r.id))
	enc.U64(uint64(r.parent))
	enc.String(r.kind)
	enc.String(r.name)
	enc.F64(r.start)
	enc.F64(r.end)
	enc.U64(uint64(len(r.fields)))
	for _, f := range r.fields {
		enc.String(f.key)
		enc.F64(f.val)
	}
}
