package pool

import (
	"math"

	"aquatope/internal/faas"
	"aquatope/internal/telemetry"
)

// Manager drives pool policies against a cluster: it samples each managed
// function's instantaneous demand, folds it into per-minute history, and
// applies the policy's pre-warm target / keep-alive decision once per
// adjustment interval (IntervalSec, §4.3).
type Manager struct {
	cl *faas.Cluster
	// ApplyAfter delays policy decisions until this simulation time while
	// demand history is already being collected — the training window of
	// an end-to-end run.
	ApplyAfter float64
	// Guard enables degraded-mode fallback: when the platform sheds at
	// least guardShedThreshold invocations within one interval, pre-warm
	// targets switch from the model's decisions to a conservative
	// recent-peak rule until guardRecoverIntervals consecutive ticks stay
	// clean.
	Guard bool

	entries []*entry
	started bool
	// Degraded-mode state (all zero without the guard).
	degraded   bool
	cleanTicks int
	lastShed   int
}

// IntervalSec is the pool-adjustment interval: one minute (§4.3).
const IntervalSec = 60

const (
	// samplesPerInterval is the demand sampling resolution: the watermark
	// is read this many times per interval.
	samplesPerInterval = 12
	// rewarmDelaySec is how long after an invoker crash the manager
	// re-asserts its last pre-warm targets, restoring the pool that died
	// with the invoker instead of waiting out the interval (the surviving
	// invokers' spawn latency dominates).
	rewarmDelaySec = 1
	// guardShedThreshold trips degraded mode: the platform shed at least
	// this many invocations within one interval.
	guardShedThreshold = 30
	// guardRecoverIntervals consecutive clean ticks restore model-driven
	// mode.
	guardRecoverIntervals = 3
	// guardPeakWindowMin is the trailing demand window whose peak sets the
	// degraded pre-warm target.
	guardPeakWindowMin = 10
)

type entry struct {
	fn     string
	policy Policy
	// history of finalized per-minute demand values since t = 0, so
	// len(history) is the absolute minute index.
	history   []float64
	watermark float64
	// lastTarget remembers the most recent applied pre-warm target so pool
	// capacity lost to an invoker crash can be restored between ticks.
	lastTarget int
}

// NewManager returns a manager bound to a cluster.
func NewManager(cl *faas.Cluster) *Manager {
	return &Manager{cl: cl}
}

// Manage registers a function under a policy. Call before Start.
func (m *Manager) Manage(fn string, p Policy) {
	m.entries = append(m.entries, &entry{fn: fn, policy: p})
}

// History returns the observed per-minute demand of a managed function.
func (m *Manager) History(fn string) []float64 {
	for _, e := range m.entries {
		if e.fn == fn {
			return append([]float64(nil), e.history...)
		}
	}
	return nil
}

// Start begins sampling and periodic adjustment on the cluster's engine.
func (m *Manager) Start() {
	if m.started {
		return
	}
	m.started = true
	eng := m.cl.Engine()
	const sampleGap = IntervalSec / samplesPerInterval
	var sample func()
	sample = func() {
		for _, e := range m.entries {
			d := float64(m.cl.Demand(e.fn))
			if d > e.watermark {
				e.watermark = d
			}
		}
		eng.After(sampleGap, sample)
	}
	var tick func()
	tick = func() {
		tr := m.cl.Tracer()
		apply := eng.Now() >= m.ApplyAfter
		// Pass 1: finalize demand history and collect every policy's
		// decision. Decisions are pure in cluster state (they see only
		// history), so hoisting them ahead of the applies preserves the
		// policy and cluster RNG streams exactly.
		decs := make([]Decision, len(m.entries))
		actuals := make([]float64, len(m.entries))
		for i, e := range m.entries {
			actuals[i] = e.watermark
			e.history = append(e.history, e.watermark)
			e.watermark = float64(m.cl.Demand(e.fn))
			if apply {
				decs[i] = e.policy.Decide(e.history, len(e.history))
			}
		}
		// Guard: trip or recover degraded mode on this tick's evidence.
		degraded, newSheds := m.updateGuard(apply, tr)
		if apply {
			// Pass 2: apply — in degraded mode the pre-warm target falls
			// back to the conservative recent-peak rule.
			for i, e := range m.entries {
				dec := decs[i]
				if degraded {
					dec.Target = m.peakTarget(e)
				}
				if dec.KeepAlive > 0 {
					_ = m.cl.SetKeepAlive(e.fn, dec.KeepAlive)
				}
				if dec.Target >= 0 {
					_ = m.cl.SetPrewarmTarget(e.fn, dec.Target)
					e.lastTarget = dec.Target
				}
				if tr.Enabled() {
					// Explain record: the decision's inputs (forecast,
					// uncertainty band, observed demand, platform state)
					// alongside its outputs, so aquatrace can reconstruct
					// why each target was chosen (DESIGN.md §11).
					idle, warming, busy := m.cl.WarmCount(e.fn)
					f := telemetry.Fields{
						"predicted":      dec.Predicted,
						"headroom":       dec.Headroom,
						"target":         float64(dec.Target),
						"keepalive":      dec.KeepAlive,
						"actual":         actuals[i],
						"demand":         float64(m.cl.Demand(e.fn)),
						"idle":           float64(idle),
						"warming":        float64(warming),
						"busy":           float64(busy),
						"open_breakers":  float64(m.cl.OpenBreakers()),
						"sheds_interval": float64(newSheds),
						"why":            whyModel,
					}
					if degraded {
						f["degraded"] = 1
						f["why"] = whyDegraded
					}
					tr.Point(telemetry.KindPoolDecision, e.fn, 0, eng.Now(), f)
				}
			}
		}
		eng.After(IntervalSec, tick)
	}
	eng.After(sampleGap, sample)
	eng.After(IntervalSec, tick)
	// Recovery re-warming: when an invoker crashes, its warm containers die
	// with it. Re-assert the last pre-warm targets shortly after the crash
	// so the pool is rebuilt on the survivors instead of serving cold
	// starts until the next adjustment tick.
	m.cl.OnInvokerDown(func(invoker int) {
		eng.After(rewarmDelaySec, func() {
			tr := m.cl.Tracer()
			for _, e := range m.entries {
				if e.lastTarget <= 0 {
					continue
				}
				_ = m.cl.SetPrewarmTarget(e.fn, e.lastTarget)
				if tr.Enabled() {
					tr.Point(telemetry.KindPoolDecision, e.fn, 0, eng.Now(), telemetry.Fields{
						"target":  float64(e.lastTarget),
						"rewarm":  1,
						"invoker": float64(invoker),
						"why":     whyRewarm,
					})
				}
			}
		})
	})
}

// "why" codes recorded on pool.decision explain points.
const (
	whyModel    = 0 // model-driven forecast + headroom
	whyDegraded = 1 // guard tripped: recent-peak fallback
	whyRewarm   = 2 // re-assert targets after an invoker crash
)

// updateGuard drives the degraded-mode state machine on one tick's
// evidence (the platform's shed counter) and reports whether targets should
// fall back to the recent-peak rule, plus the shed count observed this
// interval (for the decision audit log). Mode changes emit an explicit
// pool.mode telemetry point; its trigger 1 names the shed trigger.
func (m *Manager) updateGuard(apply bool, tr *telemetry.Collector) (bool, int) {
	if !m.Guard {
		return false, 0
	}
	// Track the shed counter every tick (training included) so the first
	// applied tick sees one interval's delta, not the whole training run.
	shed := m.cl.Metrics().ShedInvocations()
	newSheds := shed - m.lastShed
	m.lastShed = shed
	if !apply {
		return false, newSheds
	}
	now := m.cl.Engine().Now()
	if newSheds >= guardShedThreshold {
		m.cleanTicks = 0
		if !m.degraded {
			m.degraded = true
			if tr.Enabled() {
				tr.Point(telemetry.KindPoolMode, "pool", 0, now, telemetry.Fields{
					"mode":    1,
					"trigger": 1,
					"sheds":   float64(newSheds),
				})
			}
		}
	} else if m.degraded {
		m.cleanTicks++
		if m.cleanTicks >= guardRecoverIntervals {
			m.degraded = false
			if tr.Enabled() {
				tr.Point(telemetry.KindPoolMode, "pool", 0, now, telemetry.Fields{
					"mode":    0,
					"trigger": 0,
					"sheds":   float64(newSheds),
				})
			}
		}
	}
	return m.degraded, newSheds
}

// peakTarget is the degraded-mode target: the ceiling of the trailing peak
// demand over the guard's window.
func (m *Manager) peakTarget(e *entry) int {
	start := len(e.history) - guardPeakWindowMin
	if start < 0 {
		start = 0
	}
	peak := 0.0
	for _, v := range e.history[start:] {
		if v > peak {
			peak = v
		}
	}
	return int(math.Ceil(peak))
}

// DemandSeries computes the per-minute concurrent-demand series implied by
// a set of arrivals with a given mean service time — the training signal
// for predictive policies. It counts, for each minute, the peak number of
// overlapping (arrival, arrival+service) intervals.
func DemandSeries(arrivals []float64, serviceSec float64, minutes int) []float64 {
	out := make([]float64, minutes)
	if serviceSec <= 0 {
		serviceSec = 1
	}
	// Sweep: events at start (+1) and end (-1), tracking per-minute max.
	type ev struct {
		t float64
		d int
	}
	evs := make([]ev, 0, 2*len(arrivals))
	for _, a := range arrivals {
		evs = append(evs, ev{a, +1}, ev{a + serviceSec, -1})
	}
	// Events are nearly sorted; insertion sort by time.
	for i := 1; i < len(evs); i++ {
		v := evs[i]
		j := i - 1
		for j >= 0 && evs[j].t > v.t {
			evs[j+1] = evs[j]
			j--
		}
		evs[j+1] = v
	}
	cur := 0
	for _, e := range evs {
		m := int(e.t / 60)
		cur += e.d
		if m >= 0 && m < minutes && float64(cur) > out[m] {
			out[m] = float64(cur)
		}
	}
	// Demand persists across minute boundaries for long-running work:
	// carry a floor of the running concurrency into each minute.
	cur = 0
	idx := 0
	for m := 0; m < minutes; m++ {
		boundary := float64(m) * 60
		for idx < len(evs) && evs[idx].t < boundary {
			cur += evs[idx].d
			idx++
		}
		if float64(cur) > out[m] {
			out[m] = float64(cur)
		}
	}
	return out
}
