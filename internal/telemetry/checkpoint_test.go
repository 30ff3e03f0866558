package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"aquatope/internal/checkpoint"
	"aquatope/internal/stats"
)

// tracerOp is one recorded call of a random tracer script, kept as data so
// the same script can be played into several collectors (which copy the
// field maps they are handed, so the players share them).
type tracerOp struct {
	op     int
	kind   string
	name   string
	parent SpanID
	id     SpanID // opEnd
	at     float64
	fields Fields
	sub    []tracerOp // opMerge: the script of the collector merged in
}

const (
	opStart = iota
	opEnd
	opPoint
	opMerge
	opSnapshot // a possible snapshot point; only the incremental player takes it
)

// randomScript draws n tracer calls: spans that stay open across snapshot
// points (or for ever), EndSpan on unknown, zero and already-ended IDs,
// points, and — at depth > 0 — merges of collectors that still hold open
// spans. It returns the script and the number of span IDs it consumes.
func randomScript(rng *stats.RNG, n, depth int) ([]tracerOp, SpanID) {
	kinds := []string{KindWorkflow, KindStage, KindInvocation, KindChaosFault}
	fields := func() Fields {
		if rng.Bernoulli(0.3) {
			return nil
		}
		f := Fields{}
		for i, k := 0, rng.Intn(4); i < k; i++ {
			f[fmt.Sprintf("f%d", rng.Intn(6))] = rng.Normal(0, 10)
		}
		return f
	}
	var ops []tracerOp
	var open []SpanID
	next := SpanID(1)
	now := 0.0
	for len(ops) < n {
		now += rng.Float64()
		parent := SpanID(0)
		if next > 1 && rng.Bernoulli(0.5) {
			parent = SpanID(1 + rng.Intn(int(next-1)))
		}
		switch r := rng.Float64(); {
		case r < 0.30:
			ops = append(ops, tracerOp{op: opStart, kind: kinds[rng.Intn(len(kinds))], name: fmt.Sprintf("s%d", next), parent: parent, at: now})
			open = append(open, next)
			next++
		case r < 0.55 && len(open) > 0:
			i := rng.Intn(len(open))
			ops = append(ops, tracerOp{op: opEnd, id: open[i], at: now, fields: fields()})
			open = append(open[:i], open[i+1:]...)
		case r < 0.62:
			// Zero, already-ended-or-open, and never-issued IDs.
			id := SpanID(rng.Intn(int(next) + 3))
			for i, o := range open {
				if o == id {
					open = append(open[:i], open[i+1:]...)
					break
				}
			}
			ops = append(ops, tracerOp{op: opEnd, id: id, at: now, fields: fields()})
		case r < 0.85:
			ops = append(ops, tracerOp{op: opPoint, kind: KindRetry, name: "p", parent: parent, at: now, fields: fields()})
			next++
		case r < 0.90 && depth > 0:
			sub, used := randomScript(rng, 1+rng.Intn(12), depth-1)
			ops = append(ops, tracerOp{op: opMerge, sub: sub})
			next += used
		default:
			ops = append(ops, tracerOp{op: opSnapshot})
		}
	}
	return ops, next - 1
}

// play runs the script into c. An incremental player snapshots at every
// snapshot point (and snapshots merge sources before merging them); the
// other never snapshots.
func play(c *Collector, ops []tracerOp, incremental bool) {
	for _, o := range ops {
		switch o.op {
		case opStart:
			c.StartSpan(o.kind, o.name, o.parent, o.at)
		case opEnd:
			c.EndSpan(o.id, o.at, o.fields)
		case opPoint:
			c.Point(o.kind, o.name, o.parent, o.at, o.fields)
		case opMerge:
			src := NewCollector()
			play(src, o.sub, incremental)
			c.Merge(src)
		case opSnapshot:
			if incremental {
				c.SnapshotTo(checkpoint.NewEncoder())
			}
		}
	}
}

func spanSection(c *Collector) []byte {
	enc := checkpoint.NewEncoder()
	c.SnapshotTo(enc)
	return enc.Bytes()
}

// TestSnapshotPathIndependent is the property restore rests on: the
// original run snapshots at every boundary, a restoring server once, and
// both must emit the same section bytes for the same tracer history.
func TestSnapshotPathIndependent(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		ops, ids := randomScript(stats.NewRNG(seed), 300, 2)
		often, once := NewCollector(), NewCollector()
		play(often, ops, true)
		play(once, ops, false)
		if often.Len() != int(ids) || once.Len() != int(ids) {
			t.Fatalf("seed %d: script consumed %d IDs, collectors hold %d and %d spans", seed, ids, often.Len(), once.Len())
		}

		got, want := spanSection(often), spanSection(once)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: section after incremental snapshots differs from a single snapshot (%d vs %d bytes)", seed, len(got), len(want))
		}
		if again := spanSection(often); !bytes.Equal(again, got) {
			t.Fatalf("seed %d: a second snapshot with no tracer activity changed the section", seed)
		}
		if completed, open := often.sealed.Count(), len(often.byID); completed+open != int(ids) {
			t.Fatalf("seed %d: %d completed and %d open spans; want %d in all", seed, completed, open, ids)
		}
		if len(often.done) != 0 {
			t.Fatalf("seed %d: %d completion indices left after a snapshot", seed, len(often.done))
		}

		// Snapshots must not have touched the spans themselves.
		var a, b bytes.Buffer
		if err := often.WriteJSONL(&a); err != nil {
			t.Fatal(err)
		}
		if err := once.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("seed %d: span dumps differ between the two collectors", seed)
		}
	}
}

// TestSnapshotCoversEveryDumpByte: the section is a digest plus the open
// spans, and must be no weaker than the JSONL blob it replaced — changing
// any one value a dump line shows, of a completed or an open span, changes
// the section.
func TestSnapshotCoversEveryDumpByte(t *testing.T) {
	if n := reflect.TypeOf(Span{}).NumField(); n != 7 {
		t.Fatalf("Span has %d fields: teach appendRecord and this test about the new one", n)
	}
	// Spans 1 (open parent), 2 (completed, with fields), 3 (completed
	// point), 4 (open, child of 1).
	build := func() *Collector {
		c := NewCollector()
		root := c.StartSpan(KindWorkflow, "wf", 0, 1)
		inv := c.StartSpan(KindInvocation, "fn", root, 2)
		c.Point(KindRetry, "retry", inv, 2.5, Fields{"attempt": 1})
		c.StartSpan(KindStage, "stage", root, 3)
		c.EndSpan(inv, 4, Fields{"cold": 1, "exec_s": 1.5})
		return c
	}
	base := spanSection(build())
	mutations := map[string]func(*Span){
		"id":          func(sp *Span) { sp.ID += 100 },
		"parent":      func(sp *Span) { sp.Parent++ },
		"kind":        func(sp *Span) { sp.Kind += "x" },
		"name":        func(sp *Span) { sp.Name += "x" },
		"start":       func(sp *Span) { sp.Start += 0.5 },
		"end":         func(sp *Span) { sp.End += 0.5 },
		"field-added": func(sp *Span) { sp.Fields = Fields{"cold": 1, "exec_s": 1.5, "new": 0} },
		"field-value": func(sp *Span) { sp.Fields = Fields{"cold": 1, "exec_s": 2.5} },
		"field-key":   func(sp *Span) { sp.Fields = Fields{"cold": 1, "exec_t": 1.5} },
	}
	for _, target := range []struct {
		name  string
		index int
	}{{"completed", 1}, {"open", 3}} {
		for what, mutate := range mutations {
			c := build()
			// Records are hashed at snapshot time, so editing the table
			// before the first snapshot stands in for a run that recorded
			// a different value.
			before := recordAt(c.chunks, target.index).span()
			sp := before
			mutate(&sp)
			if reflect.DeepEqual(before, sp) {
				t.Fatalf("%s/%s: mutation changed nothing", target.name, what)
			}
			setRecord(c, target.index, sp)
			if bytes.Equal(spanSection(c), base) {
				t.Errorf("changing the %s of a %s span left the section unchanged", what, target.name)
			}
		}
	}
}
