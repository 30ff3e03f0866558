// Package sim implements the discrete-event simulation engine the FaaS
// platform substrate runs on: a virtual clock, a 4-ary-heap event queue with
// stable FIFO ordering for simultaneous events, and cancellable timers.
//
// All simulated time is expressed as float64 seconds from the start of the
// simulation. The engine is single-goroutine and deterministic: running the
// same event program twice yields identical schedules.
package sim

import (
	"fmt"
	"math"
	"slices"

	"aquatope/internal/telemetry"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time = float64

// Event is a scheduled callback. Callers may hold an *Event past its firing
// (to Cancel it), so the engine never recycles one. It is two words: the
// firing time lives only in the queue entry, a nil fn marks a canceled
// event and a nil eng one that has left the queue.
type Event struct {
	fn  func()
	eng *Engine // owner while queued, for live-event accounting on Cancel
}

// Cancel prevents a pending event from firing. Canceling an event that
// already fired (or canceling twice) is a no-op. A canceled event keeps its
// queue slot until it reaches the head and is popped: removing it eagerly
// would change the pending schedule the checkpoint fingerprint lists.
func (e *Event) Cancel() {
	if e == nil || e.fn == nil {
		return
	}
	e.fn = nil
	// Still in the queue: it no longer counts as a live pending event.
	if e.eng != nil {
		e.eng.live--
	}
}

// entry is one queue slot. The (at, seq) key sits beside the pointer so
// sifting compares without touching the events themselves.
type entry struct {
	at  Time
	seq uint64 // tie-breaker preserving schedule order
	ev  *Event
}

func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// compare orders entries as before does, for slices.SortFunc.
func (a entry) compare(b entry) int {
	switch {
	case a.before(b):
		return -1
	case b.before(a):
		return 1
	}
	return 0
}

// eventQueue is a 4-ary min-heap on (at, seq). seq is unique, so the key
// order is total and the pop order does not depend on the heap's shape.
type eventQueue []entry

func (q *eventQueue) push(x entry) {
	h := append(*q, x)
	*q = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

// pop removes and returns the head; the queue must not be empty.
func (q *eventQueue) pop() entry {
	h := *q
	head := h[0]
	n := len(h) - 1
	x := h[n]
	h[n] = entry{}
	h = h[:n]
	*q = h
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].before(h[least]) {
				least = c
			}
		}
		if !h[least].before(x) {
			break
		}
		h[i] = h[least]
		i = least
	}
	if n > 0 {
		h[i] = x
	}
	head.ev.eng = nil
	return head
}

// Engine is a discrete-event simulator.
type Engine struct {
	now    Time
	queue  eventQueue
	seq    uint64
	events uint64 // total events processed, for diagnostics
	live   int    // scheduled events that are neither canceled nor fired

	// Optional telemetry instruments (nil when not instrumented).
	evCount  *telemetry.Counter
	clockG   *telemetry.Gauge
	pendingG *telemetry.Gauge

	snap []entry // Snapshot's scratch copy of the queue
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// SetMetrics registers the engine's telemetry instruments on reg: the
// "sim.events" counter plus "sim.clock_s" and "sim.pending_events" gauges,
// updated as events execute. A nil registry detaches them.
func (e *Engine) SetMetrics(reg *telemetry.Registry) {
	e.evCount = reg.Counter(telemetry.MetricSimEvents)
	e.clockG = reg.Gauge(telemetry.MetricSimClock)
	e.pendingG = reg.Gauge(telemetry.MetricSimPendingEvents)
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of live scheduled events: canceled events are
// excluded even while they still occupy the queue, so gauges built on this
// reflect real outstanding work.
//
//aqualint:allow unreached test observer: sim, chaos and workflow tests read outstanding work through it
func (e *Engine) Pending() int { return e.live }

// Reset returns a drained engine to the state NewEngine leaves it in —
// clock, sequence and counters at zero — keeping the queue's storage, so a
// caller that runs many short simulations back to back reuses one engine.
// Telemetry instruments stay attached. Resetting an engine with events
// still queued is a logic bug and panics.
func (e *Engine) Reset() {
	if len(e.queue) > 0 {
		panic("sim: reset with events queued")
	}
	e.now, e.seq, e.events, e.live = 0, 0, 0, 0
}

// Grow makes room in the queue for n more events, so a caller that hands
// over a known number of events up front grows the heap once.
func (e *Engine) Grow(n int) { e.queue = slices.Grow(e.queue, n) }

// Schedule runs fn at absolute virtual time at. Scheduling in the past or
// a nil fn panics: either always indicates a logic bug in the caller.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	if math.IsNaN(at) {
		panic("sim: scheduling event at NaN")
	}
	ev := &Event{fn: fn, eng: e}
	e.queue.push(entry{at: at, seq: e.seq, ev: ev})
	e.seq++
	e.live++
	return ev
}

// After runs fn after delay seconds of virtual time. Negative delays are
// clamped to zero.
func (e *Engine) After(delay float64, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.Schedule(e.now+delay, fn)
}

// Step executes the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		x := e.queue.pop()
		if x.ev.fn == nil {
			continue // live count already dropped at Cancel time
		}
		e.now = x.at
		e.events++
		e.live--
		e.evCount.Inc()
		e.clockG.Set(e.now)
		e.pendingG.Set(float64(e.live))
		x.ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if it has not passed it already).
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 {
		// Peek without popping: the heap's head is index 0.
		next := e.queue[0]
		if next.ev.fn == nil {
			e.queue.pop()
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
