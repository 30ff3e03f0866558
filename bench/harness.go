package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// stopwatch is the benchmark's one wall-clock reader. Everything the
// program under test does runs in virtual time; the harness measures how
// much host time that takes, from outside.
type stopwatch struct{ start time.Time }

func startWatch() stopwatch {
	return stopwatch{start: time.Now()} //aqualint:allow wallclock the benchmark measures host time around calls into the program; no simulated component reads it
}

func (w stopwatch) seconds() float64 {
	return time.Since(w.start).Seconds() //aqualint:allow wallclock the benchmark measures host time around calls into the program; no simulated component reads it
}

// span is one harness-level interval around a call into the program, in
// host nanoseconds from the start of the process's recorder.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// recorder keeps the traced run's spans in memory until the run ends. A
// nil recorder (tracing off) makes every method a no-op, so untraced reps
// pay one nil check per call site.
type recorder struct {
	workload string
	epoch    stopwatch
	spans    []span
	open     []int // stack of open span indices
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: startWatch()}
}

func (r *recorder) nowNS() int64 { return int64(r.epoch.seconds() * 1e9) }

// parent is the ID of the innermost open span, 0 at the top level.
func (r *recorder) parent() int {
	if n := len(r.open); n > 0 {
		return r.spans[r.open[n-1]].ID
	}
	return 0
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i + 1, Parent: r.parent(), Name: name, Workload: r.workload, StartNS: r.nowNS()})
	r.open = append(r.open, i)
	return i
}

// end closes span i, the innermost open one: spans nest like the calls
// they bracket.
func (r *recorder) end(i int, counts map[string]float64) {
	if r == nil {
		return
	}
	r.spans[i].EndNS = r.nowNS()
	r.spans[i].Counts = counts
	r.open = r.open[:len(r.open)-1]
}

// leaf records an already-measured interval that ended now — the shape the
// per-call decorators use, where opening a span before the call would add
// a second clock read to a microsecond-scale operation.
func (r *recorder) leaf(name string, seconds float64) {
	if r == nil {
		return
	}
	end := r.nowNS()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: r.parent(), Name: name, Workload: r.workload,
		StartNS: end - int64(seconds*1e9), EndNS: end})
}

// total sums the durations of every span with the given name, in seconds.
func (r *recorder) total(name string) float64 {
	if r == nil {
		return 0
	}
	var ns int64
	for _, s := range r.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// region is one measured call: host seconds plus the heap traffic it
// caused.
type region struct {
	seconds float64
	bytes   uint64
	mallocs uint64
}

// measure times fn and reads the allocator's cumulative counters around it.
// It collects first, so every measured region starts from the same heap
// state whatever ran before it. ReadMemStats stops the world, so measure
// brackets whole reps and probe loops, never single operations.
func measure(fn func()) region {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := startWatch()
	fn()
	s := w.seconds()
	runtime.ReadMemStats(&after)
	return region{seconds: s, bytes: after.TotalAlloc - before.TotalAlloc, mallocs: after.Mallocs - before.Mallocs}
}

// perOp runs fn over batches of n operations until budget seconds have
// been measured (at least three batches) and returns the median batch's
// per-operation cost. fn receives the batch size; set-up it needs per batch
// belongs in prep, which is not timed.
func perOp(budget float64, n int, prep func(), fn func(n int)) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	spent := 0.0
	for len(ns) < 3 || spent < budget {
		if prep != nil {
			prep()
		}
		r := measure(func() { fn(n) })
		ns = append(ns, r.seconds*1e9/float64(n))
		allocs = append(allocs, float64(r.mallocs)/float64(n))
		spent += r.seconds
		if len(ns) >= 64 {
			break
		}
	}
	return median(ns), median(allocs)
}

// summary is the shape every timing is reported in.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Raw    []float64 `json:"raw"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Raw: append([]float64(nil), xs...)}
}

// spread is the interquartile range as a share of the median — the
// steadiness measure the acceptance rule uses.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method), so a spread computed here equals one computed by a driver
// written against that function.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile returns the p-quantile (0..1) by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// check is one correctness assertion a rep makes about the program's
// output; fail_share is failed checks over checks attempted.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func passIf(name string, ok bool, format string, args ...any) check {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}
