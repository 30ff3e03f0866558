// Package chaos is the deterministic fault-injection subsystem: it scripts
// fault scenarios — invoker crash/recover windows, container init-failure
// and execution-kill probability windows, straggler slowdown episodes —
// against the faas simulator. Every fault is driven by internal/sim events
// on the cluster's engine and every random choice comes from explicit
// seeds, so two runs of the same scenario with the same seed are
// byte-identical (the determinism test in chaos_test.go diffs full span
// dumps). The point of the subsystem is evaluating the resilience layer
// (workflow retries/hedging, pool re-warming, failure-aware routing) under
// reproducible adversity, per the paper's premise that serverless QoS
// management must tolerate the platform's own churn.
package chaos

import (
	"fmt"
	"sort"

	"aquatope/internal/faas"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
)

// Kind enumerates the fault archetypes the injector can script.
type Kind string

const (
	// KindInvokerCrash takes an invoker down at At: all resident containers
	// die, in-flight invocations on it fail, and routing avoids it until it
	// recovers Duration seconds later (Duration 0 = never recovers).
	KindInvokerCrash Kind = "invoker-crash"
	// KindFaultRates opens a window [At, At+Duration) during which new
	// containers fail to initialize with probability Rates.InitFailure and
	// running invocations are killed mid-execution with probability
	// Rates.ExecKill. Overlapping windows add their rates.
	KindFaultRates Kind = "fault-rates"
	// KindStraggler multiplies execution times on one invoker by Factor for
	// the window [At, At+Duration) — a degraded-host episode.
	KindStraggler Kind = "straggler"
	// KindBurst injects background invocations at Rate per second for the
	// window [At, At+Duration) — a demand surge stacked on top of the
	// workload, driving the platform through and past saturation. It
	// round-robins over every registered function.
	KindBurst Kind = "burst"
	// KindCrash kills the controller process itself at At — the fault the
	// crash-safe serving loop (internal/serve) exists to survive. The
	// injector invokes its registered crash hook (see SetOnCrash); with no
	// hook armed the event is inert. The event emits no telemetry span and
	// is always scheduled even when inert, so a killed-and-restored run and
	// an uninterrupted reference run see identical engine event sequences —
	// the byte-identity contract depends on it.
	KindCrash Kind = "controller-crash"
)

// Fault is one scripted fault episode.
type Fault struct {
	Kind Kind
	// At is the activation time (simulation seconds).
	At float64
	// Duration is the episode length; for crashes it is the recovery delay
	// and 0 means the invoker never comes back.
	Duration float64
	// Invoker targets crash and straggler faults.
	Invoker int
	// Rates carries the probabilities of a fault-rates window.
	Rates faas.FaultRates
	// Factor is the straggler's execution-time multiplier (> 1).
	Factor float64
	// Rate is the burst's injection rate in invocations per second.
	Rate float64
}

// Scenario is a named, ordered fault script.
type Scenario struct {
	Name   string
	Faults []Fault
}

// Empty reports whether the scenario injects nothing.
func (s Scenario) Empty() bool { return len(s.Faults) == 0 }

// Injector arms a scenario on a cluster's event engine.
type Injector struct {
	cl    *faas.Cluster
	scn   Scenario
	armed bool

	// curRates accumulates overlapping fault-rate windows.
	curRates faas.FaultRates

	// onCrash, when set, is invoked by KindCrash faults (it does not
	// return in a real kill; tests panic a sentinel). Nil leaves the
	// fault inert.
	onCrash func()
}

// SetOnCrash registers the controller-kill hook driven by KindCrash faults.
// Restored and reference runs leave it unset so the scripted kill fires as
// a no-op.
func (in *Injector) SetOnCrash(fn func()) { in.onCrash = fn }

// New returns an injector for the scenario, emitting chaos.fault spans to
// the cluster's tracer as it is when each fault fires.
func New(cl *faas.Cluster, scn Scenario) *Injector {
	return &Injector{cl: cl, scn: scn}
}

// Arm schedules every fault of the scenario on the cluster's engine. Faults
// are scheduled in (At, script order): the engine's stable FIFO for
// simultaneous events keeps ties deterministic. Arm is idempotent.
func (in *Injector) Arm() {
	if in.armed {
		return
	}
	in.armed = true
	eng := in.cl.Engine()
	faults := append([]Fault(nil), in.scn.Faults...)
	sort.SliceStable(faults, func(a, b int) bool { return faults[a].At < faults[b].At })
	for _, f := range faults {
		f := f
		eng.Schedule(f.At, func() { in.fire(f) })
	}
}

func (in *Injector) fire(f Fault) {
	eng := in.cl.Engine()
	now := eng.Now()
	if f.Kind == KindCrash {
		// No span: the dumps of a crashed process are discarded, and the
		// inert firing in restored/reference runs must not add telemetry
		// that the checkpointed prefix of the killed run lacked.
		if in.onCrash != nil {
			in.onCrash()
		}
		return
	}
	tr := in.cl.Tracer()
	span := tr.StartSpan(telemetry.KindChaosFault, string(f.Kind), 0, now)
	end := func(fields telemetry.Fields) {
		if span != 0 {
			tr.EndSpan(span, eng.Now(), fields)
		}
	}
	switch f.Kind {
	case KindInvokerCrash:
		in.cl.CrashInvoker(f.Invoker)
		if f.Duration > 0 {
			eng.After(f.Duration, func() {
				in.cl.RecoverInvoker(f.Invoker)
				end(telemetry.Fields{"invoker": float64(f.Invoker), "recover_s": f.Duration})
			})
		} else {
			end(telemetry.Fields{"invoker": float64(f.Invoker), "recover_s": 0})
		}
	case KindFaultRates:
		in.curRates.InitFailure += f.Rates.InitFailure
		in.curRates.ExecKill += f.Rates.ExecKill
		in.cl.SetFaultRates(in.curRates)
		closeWindow := func() {
			in.curRates.InitFailure -= f.Rates.InitFailure
			in.curRates.ExecKill -= f.Rates.ExecKill
			in.cl.SetFaultRates(in.curRates)
			end(telemetry.Fields{
				"init_failure": f.Rates.InitFailure,
				"exec_kill":    f.Rates.ExecKill,
			})
		}
		if f.Duration > 0 {
			eng.After(f.Duration, closeWindow)
		} else {
			// A zero-duration rates fault is permanent: leave the rates on
			// and close the span as a point.
			end(telemetry.Fields{
				"init_failure": f.Rates.InitFailure,
				"exec_kill":    f.Rates.ExecKill,
			})
		}
	case KindStraggler:
		in.cl.SetStraggler(f.Invoker, f.Factor)
		closeWindow := func() {
			in.cl.SetStraggler(f.Invoker, 1)
			end(telemetry.Fields{"invoker": float64(f.Invoker), "factor": f.Factor})
		}
		if f.Duration > 0 {
			eng.After(f.Duration, closeWindow)
		} else {
			end(telemetry.Fields{"invoker": float64(f.Invoker), "factor": f.Factor})
		}
	case KindBurst:
		fns := in.cl.Functions()
		if f.Rate <= 0 || f.Duration <= 0 || len(fns) == 0 {
			end(telemetry.Fields{"rate": f.Rate, "injected": 0})
			return
		}
		step := 1 / f.Rate
		until := now + f.Duration
		injected := 0
		var inject func()
		inject = func() {
			if eng.Now() >= until {
				end(telemetry.Fields{"rate": f.Rate, "injected": float64(injected)})
				return
			}
			// Background pressure: fire-and-forget, no deadline — under
			// bounded queues the platform is free to shed it.
			if err := in.cl.Invoke(fns[injected%len(fns)], 1, nil); err != nil {
				end(telemetry.Fields{"rate": f.Rate, "injected": float64(injected)})
				return
			}
			injected++
			eng.After(step, inject)
		}
		inject()
	default:
		end(nil)
	}
}

// Names lists the builtin scenario names accepted by Builtin (and the
// -chaos CLI flag), in stable order.
func Names() []string {
	return []string{"invoker-crash", "container-churn", "stragglers", "mixed",
		"overload", "overload-crash", "kill-restore", "random"}
}

// Builtin returns a named scenario scaled to a run horizon (seconds).
// "random" additionally uses seed to draw a randomized script; the other
// scenarios are fixed functions of the horizon. ok is false for unknown
// names.
func Builtin(name string, horizon float64, seed int64) (scn Scenario, ok bool) {
	if horizon <= 0 {
		horizon = 600
	}
	h := horizon
	switch name {
	case "invoker-crash":
		return Scenario{Name: name, Faults: []Fault{
			{Kind: KindInvokerCrash, At: 0.25 * h, Duration: 0.20 * h, Invoker: 1},
			{Kind: KindInvokerCrash, At: 0.60 * h, Duration: 0.15 * h, Invoker: 3},
		}}, true
	case "container-churn":
		return Scenario{Name: name, Faults: []Fault{
			{Kind: KindFaultRates, At: 0.15 * h, Duration: 0.60 * h,
				Rates: faas.FaultRates{InitFailure: 0.05, ExecKill: 0.03}},
		}}, true
	case "stragglers":
		return Scenario{Name: name, Faults: []Fault{
			{Kind: KindStraggler, At: 0.20 * h, Duration: 0.35 * h, Invoker: 0, Factor: 3},
			{Kind: KindStraggler, At: 0.50 * h, Duration: 0.35 * h, Invoker: 2, Factor: 2.5},
		}}, true
	case "mixed":
		return Scenario{Name: name, Faults: []Fault{
			{Kind: KindFaultRates, At: 0.10 * h, Duration: 0.75 * h,
				Rates: faas.FaultRates{InitFailure: 0.03, ExecKill: 0.02}},
			{Kind: KindInvokerCrash, At: 0.30 * h, Duration: 0.20 * h, Invoker: 2},
			{Kind: KindStraggler, At: 0.55 * h, Duration: 0.30 * h, Invoker: 4, Factor: 2.5},
		}}, true
	case "overload":
		// Two demand surges: a short sharp burst, then a longer sustained
		// one — the platform must shed its way through both.
		return Scenario{Name: name, Faults: []Fault{
			{Kind: KindBurst, At: 0.30 * h, Duration: 0.10 * h, Rate: 6},
			{Kind: KindBurst, At: 0.60 * h, Duration: 0.25 * h, Rate: 3},
		}}, true
	case "overload-crash":
		// Invoker loss in the middle of a surge: capacity shrinks exactly
		// when demand peaks.
		return Scenario{Name: name, Faults: []Fault{
			{Kind: KindBurst, At: 0.30 * h, Duration: 0.30 * h, Rate: 4},
			{Kind: KindInvokerCrash, At: 0.40 * h, Duration: 0.15 * h, Invoker: 1},
		}}, true
	case "kill-restore":
		// The overload-crash script plus a controller kill in the middle
		// of the surge: the worst moment to lose the controller's learned
		// state. Serve-mode runs arm a crash hook; batch runs and restored
		// runs leave the kill inert.
		return Scenario{Name: name, Faults: []Fault{
			{Kind: KindBurst, At: 0.30 * h, Duration: 0.30 * h, Rate: 4},
			{Kind: KindInvokerCrash, At: 0.40 * h, Duration: 0.15 * h, Invoker: 1},
			{Kind: KindCrash, At: 0.55 * h},
		}}, true
	case "random":
		return Random(h, 6, 1, seed), true
	}
	return Scenario{}, false
}

// Random draws a randomized scenario: a few crash windows, a fault-rates
// window and a straggler episode, with times, targets and magnitudes drawn
// from a seeded RNG. intensity scales fault probabilities and episode
// counts (1 = moderate). The same (horizon, invokers, intensity, seed)
// always yields the same script.
func Random(horizon float64, invokers int, intensity float64, seed int64) Scenario {
	if invokers < 1 {
		invokers = 1
	}
	if intensity <= 0 {
		intensity = 1
	}
	rng := stats.NewRNG(seed ^ 0x6a05_c4a0)
	var faults []Fault
	crashes := 1 + int(intensity)
	for i := 0; i < crashes; i++ {
		at := (0.1 + 0.7*rng.Float64()) * horizon
		faults = append(faults, Fault{
			Kind:     KindInvokerCrash,
			At:       at,
			Duration: (0.05 + 0.15*rng.Float64()) * horizon,
			Invoker:  int(rng.Float64() * float64(invokers)),
		})
	}
	faults = append(faults, Fault{
		Kind:     KindFaultRates,
		At:       (0.1 + 0.3*rng.Float64()) * horizon,
		Duration: (0.3 + 0.4*rng.Float64()) * horizon,
		Rates: faas.FaultRates{
			InitFailure: 0.04 * intensity * rng.Float64(),
			ExecKill:    0.03 * intensity * rng.Float64(),
		},
	})
	faults = append(faults, Fault{
		Kind:     KindStraggler,
		At:       (0.2 + 0.5*rng.Float64()) * horizon,
		Duration: (0.1 + 0.3*rng.Float64()) * horizon,
		Invoker:  int(rng.Float64() * float64(invokers)),
		Factor:   2 + 2*rng.Float64(),
	})
	return Scenario{Name: fmt.Sprintf("random-%d", seed), Faults: faults}
}
