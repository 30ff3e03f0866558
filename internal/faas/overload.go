package faas

import (
	"fmt"

	"aquatope/internal/telemetry"
)

// AdmissionPolicy selects what happens when an invocation arrives at a
// function whose bounded queue (Config.QueueLimit) is already full. All
// policies keep the queue length at or below the limit — under overload the
// platform degrades by shedding work instead of letting wait times grow
// without bound (Fifer-style SLO-aware queuing).
type AdmissionPolicy int

const (
	// AdmitRejectNew sheds the arriving invocation (default; classic
	// bounded-queue tail drop).
	AdmitRejectNew AdmissionPolicy = iota
	// AdmitDeadlineAware first sheds queued invocations whose remaining
	// deadline budget is already unmeetable given the function's observed
	// service time (they would time out anyway; shedding them early frees
	// queue space without losing goodput). If no queued entry is doomed,
	// it falls back to rejecting the newcomer.
	AdmitDeadlineAware
)

// String returns the policy's wire name (flags, telemetry, reports).
func (a AdmissionPolicy) String() string {
	switch a {
	case AdmitRejectNew:
		return "reject-new"
	case AdmitDeadlineAware:
		return "deadline-aware"
	default:
		return fmt.Sprintf("admission(%d)", int(a))
	}
}

// BreakerConfig arms the per-invoker circuit breakers. A breaker watches
// the terminal outcomes of invocations that ran on its invoker over a
// sliding window; when the error rate crosses the threshold the breaker
// opens and pickInvoker routes new containers elsewhere until a cool-down
// elapses, after which a half-open probe phase readmits the invoker
// gradually. The zero value (Enabled=false) costs nothing and keeps
// byte-identical output with pre-breaker builds.
type BreakerConfig struct {
	// Enabled turns the breakers on.
	//aqualint:allow onevalue bench/adapter.go arms breakers through it and serve's digest prints it; ROADMAP item 9(f) owns the field
	Enabled bool
}

// The breakers' constants.
const (
	// breakerWindow is the outcome ring-buffer size per invoker.
	breakerWindow = 20
	// breakerErrorRate is the windowed error-rate fraction that opens a
	// breaker.
	breakerErrorRate = 0.5
	// breakerMinSamples gates opening until the window holds this many
	// outcomes, so one early failure cannot open a breaker.
	breakerMinSamples = 8
	// breakerOpenSec is the cool-down before an open breaker admits
	// half-open probes.
	breakerOpenSec = 30
	// breakerProbes is the number of consecutive successes that close a
	// half-open breaker; any failure reopens it.
	breakerProbes = 3
)

// breakerState is the classic circuit-breaker state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("breaker(%d)", int(s))
	}
}

// breaker tracks one invoker's recent outcome window and gate state.
type breaker struct {
	state breakerState
	// ring holds the last breakerWindow outcomes (true = error).
	ring [breakerWindow]bool
	next int
	n    int
	errs int
	// openedAt is when the breaker last opened (half-open after
	// breakerOpenSec).
	openedAt float64
	// probeOK counts consecutive half-open successes.
	probeOK int
}

// errRate returns the windowed error fraction.
func (b *breaker) errRate() float64 {
	if b.n == 0 {
		return 0
	}
	return float64(b.errs) / float64(b.n)
}

// observe pushes one outcome into the window.
func (b *breaker) observe(isErr bool) {
	if b.n == breakerWindow {
		if b.ring[b.next] {
			b.errs--
		}
	} else {
		b.n++
	}
	b.ring[b.next] = isErr
	if isErr {
		b.errs++
	}
	b.next = (b.next + 1) % breakerWindow
}

// clearWindow empties the outcome ring — called on every open/close
// transition so the next state starts judging from fresh evidence instead
// of re-tripping on the stale window that caused the transition.
func (b *breaker) clearWindow() {
	b.next, b.n, b.errs = 0, 0, 0
}

// reset clears the window and closes the breaker (invoker recovery).
func (b *breaker) reset() {
	b.state = breakerClosed
	b.clearWindow()
	b.probeOK = 0
}

// breakerEvent emits the state-transition telemetry point and counters.
func (c *Cluster) breakerEvent(iv *Invoker, to breakerState, errRate float64) {
	switch to {
	case breakerOpen:
		c.metrics.breakerOpened()
	case breakerClosed:
		c.metrics.breakerClosed()
	}
	if c.tracer.Enabled() {
		f := c.fields()
		f["invoker"] = float64(iv.ID)
		f["state"] = float64(to)
		f["err_rate"] = errRate
		c.tracer.Point(telemetry.KindBreaker, fmt.Sprintf("invoker%d", iv.ID), 0, c.eng.Now(), f)
	}
}

// breakerAllows reports whether the invoker's breaker admits new placements,
// lazily transitioning open → half-open once the cool-down elapsed.
func (c *Cluster) breakerAllows(iv *Invoker) bool {
	if !c.cfg.Breaker.Enabled {
		return true
	}
	b := iv.breaker
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if c.eng.Now()-b.openedAt >= breakerOpenSec {
			b.state = breakerHalfOpen
			b.probeOK = 0
			c.breakerEvent(iv, breakerHalfOpen, b.errRate())
			return true
		}
		return false
	default: // half-open: admit probes
		return true
	}
}

// noteInvokerOutcome feeds one terminal outcome of work that ran on iv into
// its breaker and drives the state machine.
func (c *Cluster) noteInvokerOutcome(iv *Invoker, isErr bool) {
	if !c.cfg.Breaker.Enabled || iv == nil {
		return
	}
	b := iv.breaker
	b.observe(isErr)
	switch b.state {
	case breakerClosed:
		if b.n >= breakerMinSamples && b.errRate() >= breakerErrorRate {
			rate := b.errRate()
			b.state = breakerOpen
			b.openedAt = c.eng.Now()
			b.clearWindow()
			c.breakerEvent(iv, breakerOpen, rate)
		}
	case breakerHalfOpen:
		if isErr {
			rate := b.errRate()
			b.state = breakerOpen
			b.openedAt = c.eng.Now()
			b.probeOK = 0
			b.clearWindow()
			c.breakerEvent(iv, breakerOpen, rate)
		} else {
			b.probeOK++
			if b.probeOK >= breakerProbes {
				b.state = breakerClosed
				b.probeOK = 0
				b.clearWindow()
				c.breakerEvent(iv, breakerClosed, 0)
			}
		}
	}
}

// admit applies the function's admission policy to a newly arriving
// invocation. It returns true when the newcomer may be enqueued; when it
// returns false the newcomer has already been shed (terminal result
// delivered). Queue mutations happen before any shed result is delivered so
// reentrant submissions from done callbacks observe a consistent queue.
func (c *Cluster) admit(fn *function, p *pendingInvocation) bool {
	limit := fn.queueLimit
	if limit <= 0 || len(fn.queue) < limit {
		return true
	}
	if c.cfg.Admission == AdmitDeadlineAware && c.shedDoomed(fn) > 0 {
		return true
	}
	c.shed(fn, p, "queue-full")
	return false
}

// shedDoomed sheds queued invocations whose deadline cannot be met anymore
// given the function's observed service time, returning how many were shed.
// Entries without a deadline are never doomed.
func (c *Cluster) shedDoomed(fn *function) int {
	est := fn.execEWMA
	if est <= 0 {
		return 0
	}
	now := c.eng.Now()
	kept := fn.queue[:0]
	var victims []*pendingInvocation
	for _, q := range fn.queue {
		if q.timeout > 0 && q.submitAt+q.timeout < now+est {
			victims = append(victims, q) // nil until a first victim: most scans shed nothing
		} else {
			kept = append(kept, q)
		}
	}
	fn.queue = kept
	c.queued -= len(victims)
	for _, q := range victims {
		c.shed(fn, q, "deadline-unmeetable")
	}
	return len(victims)
}

// shed delivers a terminal OutcomeShed result for an invocation that was
// refused admission (or dropped from the queue). The caller must already
// have removed it from the queue.
func (c *Cluster) shed(fn *function, p *pendingInvocation, reason string) {
	c.failPending(fn, p, OutcomeShed, reason, nil)
}

// QueueDepth returns the number of invocations currently queued for the
// function (the backpressure signal hedging consults).
func (c *Cluster) QueueDepth(name string) int {
	fn, ok := c.fns[name]
	if !ok {
		return 0
	}
	return len(fn.queue)
}
