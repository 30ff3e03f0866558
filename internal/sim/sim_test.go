package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
)

// quickConfig runs n cases from a fixed seed, so every run checks the
// same inputs and a failure replays.
func quickConfig(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(1))} //aqualint:allow globalrand testing/quick takes a *rand.Rand; this one is seeded with a constant
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestAfter(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.Schedule(10, func() {
		e.After(5, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 15 {
		t.Fatalf("After fired at %v, want 15", fired)
	}
}

func TestAfterNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		e.After(-3, func() {})
	})
	e.Run()
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if ev.fn != nil || ev.eng != nil {
		t.Fatal("the event should be canceled and out of the queue")
	}
	if e.events != 0 {
		t.Fatalf("events = %v, want 0", e.events)
	}
}

func TestCancelNilSafe(t *testing.T) {
	var ev *Event
	ev.Cancel() // must not panic
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.Schedule(1, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v events, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %v, want 2", e.Pending())
	}
	// Advancing clock past the last event even when queue has nothing there.
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
	if len(fired) != 5 {
		t.Fatalf("fired %v events, want 5", len(fired))
	}
}

func TestRunUntilSkipsCanceledHead(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, func() { t.Error("should not fire") })
	fired := false
	e.Schedule(2, func() { fired = true })
	ev.Cancel()
	e.RunUntil(5)
	if !fired {
		t.Fatal("live event did not fire")
	}
}

// TestEventAt: the firing time lives in the event's queue entry.
func TestEventAt(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(7, func() {})
	if len(e.queue) != 1 || e.queue[0].ev != ev || e.queue[0].at != 7 {
		t.Fatalf("queue = %+v, want one entry for the event at 7", e.queue)
	}
	if ev.eng != e {
		t.Fatal("a queued event should name its engine")
	}
	e.Run()
	if ev.eng != nil || ev.fn == nil {
		t.Fatal("a fired event should have left the queue uncanceled")
	}
}

// TestEventIsTwoWords: an Event is its callback and its owner, nothing
// else, so it lands in the 16-byte size class.
func TestEventIsTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 16 {
		t.Fatalf("sizeof(Event) = %d, want 16", got)
	}
}

func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("scheduling a nil callback should panic")
		}
		if e.Pending() != 0 || len(e.queue) != 0 {
			t.Errorf("a refused schedule left %d pending, %d queued", e.Pending(), len(e.queue))
		}
	}()
	e.Schedule(1, nil)
}

func TestPropertyEventsFireInTimestampOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, quickConfig(500)); err != nil {
		t.Fatal(err)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 100 {
			e.After(1, step)
		}
	}
	e.Schedule(0, step)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %v, want 100", count)
	}
	if e.Now() != 99 {
		t.Fatalf("Now = %v, want 99", e.Now())
	}
	if e.events != 100 {
		t.Fatalf("events = %v", e.events)
	}
}

func TestPendingExcludesCanceled(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func() {})
	b := e.Schedule(2, func() {})
	e.Schedule(3, func() {})
	if e.Pending() != 3 {
		t.Fatalf("Pending = %v, want 3", e.Pending())
	}
	b.Cancel()
	if e.Pending() != 2 {
		t.Fatalf("Pending after cancel = %v, want 2", e.Pending())
	}
	b.Cancel() // double cancel must not decrement twice
	if e.Pending() != 2 {
		t.Fatalf("Pending after double cancel = %v, want 2", e.Pending())
	}
	if !e.Step() {
		t.Fatal("Step should fire event a")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending after step = %v, want 1", e.Pending())
	}
	a.Cancel() // canceling an already-fired event is a no-op
	if e.Pending() != 1 {
		t.Fatalf("Pending after canceling fired event = %v, want 1", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %v, want 0", e.Pending())
	}
}

func TestEngineMetrics(t *testing.T) {
	e := NewEngine()
	reg := telemetry.NewRegistry()
	e.SetMetrics(reg)
	for i := 1; i <= 4; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	s := reg.Snapshot()
	if s.Counters["sim.events"] != 4 {
		t.Fatalf("sim.events = %v, want 4", s.Counters["sim.events"])
	}
	if s.Gauges["sim.clock_s"] != 4 {
		t.Fatalf("sim.clock_s = %v, want 4", s.Gauges["sim.clock_s"])
	}
	if s.Gauges["sim.pending_events"] != 0 {
		t.Fatalf("sim.pending_events = %v, want 0", s.Gauges["sim.pending_events"])
	}
}

// TestPropertyQueueMatchesSortedReference runs random schedule / cancel /
// step programs against a reference that keeps every event in a plain list
// and picks the least live (at, schedule order) by scanning: the heap must
// fire the same event at every step and agree on Pending throughout.
func TestPropertyQueueMatchesSortedReference(t *testing.T) {
	type ref struct {
		at             Time
		canceled, gone bool
		ev             *Event
	}
	f := func(seed int64, ops []uint8) bool {
		rng := stats.NewRNG(seed)
		e := NewEngine()
		var evs []*ref
		fired := -1
		live := func() (n, least int) {
			least = -1
			for i, r := range evs {
				if r.canceled || r.gone {
					continue
				}
				n++
				// Strict <: among equal times the earliest scheduled wins.
				if least < 0 || r.at < evs[least].at {
					least = i
				}
			}
			return n, least
		}
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // schedule; delays from a small set, so times tie often
				id := len(evs)
				r := &ref{at: e.Now() + Time(rng.Intn(4))/2}
				r.ev = e.Schedule(r.at, func() { fired = id })
				evs = append(evs, r)
			case 2: // cancel anything ever scheduled, fired or not
				if len(evs) > 0 {
					r := evs[rng.Intn(len(evs))]
					r.ev.Cancel()
					if !r.gone {
						r.canceled = true
					}
				}
			case 3:
				_, want := live()
				fired = -1
				if e.Step() != (want >= 0) || fired != want {
					return false
				}
				if want >= 0 {
					evs[want].gone = true
				}
			}
			if n, _ := live(); e.Pending() != n {
				return false
			}
		}
		// Drain: what is left fires in reference order too.
		for {
			_, want := live()
			fired = -1
			if e.Step() != (want >= 0) || fired != want {
				return false
			}
			if want < 0 {
				return e.Pending() == 0
			}
			evs[want].gone = true
		}
	}
	if err := quick.Check(f, quickConfig(2000)); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleStepAllocBudget: scheduling and dispatching one event costs
// the Event itself and nothing else (the queue holds keys inline and no
// longer boxes entries through container/heap's interface).
func TestScheduleStepAllocBudget(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i), nop)
	}
	if got := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+512, nop)
		e.Step()
	}); got > 1 {
		t.Fatalf("schedule+dispatch allocates %v, budget 1", got)
	}
}
