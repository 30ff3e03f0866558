package core

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"aquatope/internal/chaos"
	"aquatope/internal/faas"
	"aquatope/internal/telemetry"
	"aquatope/internal/workflow"
)

// runFullPipeline executes the whole controller — resource-manager
// search, pool management, live traffic with chaos armed and the
// resilience layer on — with tracing and metrics attached. It is the
// regression fixture for the repo's core determinism invariant: every
// layer aqualint polices (virtual time only, seeded RNGs only, ordered
// float aggregation) feeds this run.
func runFullPipeline(t *testing.T, seed int64) (Result, *telemetry.Collector, *telemetry.Registry) {
	t.Helper()
	comps := smallComponents(2)
	horizon := float64(comps[0].Trace.DurationMin) * 60
	scn, ok := chaos.Builtin("mixed", horizon, seed)
	if !ok {
		t.Fatal("mixed chaos scenario missing")
	}
	pol := workflow.DefaultRetryPolicy()
	pol.HedgeDelay = 30 // exercise hedging, not just retries
	col := telemetry.NewCollector()
	reg := telemetry.NewRegistry()
	res, err := Run(Config{
		Components:   comps,
		TrainMin:     120,
		Scheduler:    fastBrain(t),
		SearchBudget: 6,
		Chaos:        scn,
		Resilience:   &pol,
		Tracer:       col,
		Registry:     reg,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, col, reg
}

// TestFullPipelineDeterministicUnderChaos runs the complete core pipeline
// twice with the same seed and chaos on, and requires byte-identical span
// and metric dumps. It complements chaos_test.go's injector-level
// determinism test by covering the full stack above it (BO search, BNN
// pool sizing, retry/hedge scheduling, metric aggregation).
func TestFullPipelineDeterministicUnderChaos(t *testing.T) {
	res1, col1, reg1 := runFullPipeline(t, 11)
	res2, col2, reg2 := runFullPipeline(t, 11)

	var faults int
	for _, s := range col1.Spans() {
		if s.Kind == telemetry.KindChaosFault {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("chaos scenario armed but no chaos.fault spans recorded")
	}
	if res1.Workflows() == 0 {
		t.Fatal("no workflows completed in the test window")
	}
	if res1.Retries()+res1.Hedges() == 0 {
		t.Fatal("resilience layer enabled but no retries or hedges occurred")
	}
	assertNoOpenSpans(t, col1.Spans())

	var s1, s2 bytes.Buffer
	if err := col1.WriteJSONL(&s1); err != nil {
		t.Fatal(err)
	}
	if err := col2.WriteJSONL(&s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Errorf("same-seed chaos runs produced different span streams (%d vs %d bytes); first divergence:\n%s",
			s1.Len(), s2.Len(), firstDivergence(s1.String(), s2.String()))
	}

	var m1, m2 bytes.Buffer
	if err := reg1.WriteJSON(&m1); err != nil {
		t.Fatal(err)
	}
	if err := reg2.WriteJSON(&m2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Errorf("same-seed chaos runs produced different metric snapshots; first divergence:\n%s",
			firstDivergence(m1.String(), m2.String()))
	}

	if res1.QoSViolationRate() != res2.QoSViolationRate() || res1.Goodput() != res2.Goodput() {
		t.Errorf("summary metrics diverged: violations %v vs %v, goodput %v vs %v",
			res1.QoSViolationRate(), res2.QoSViolationRate(), res1.Goodput(), res2.Goodput())
	}
}

// runOverloadPipeline executes the controller with every overload-protection
// layer armed — bounded queues under deadline-aware admission, per-invoker
// circuit breakers, the shared retry budget with hedge backpressure, the
// pool guard's degraded mode — under a surge-plus-invoker-loss chaos
// scenario that actually trips them.
func runOverloadPipeline(t *testing.T, seed int64) (Result, *telemetry.Collector, *telemetry.Registry) {
	t.Helper()
	comps := smallComponents(2)
	horizon := float64(comps[0].Trace.DurationMin) * 60
	scn, ok := chaos.Builtin("overload-crash", horizon, seed)
	if !ok {
		t.Fatal("overload-crash chaos scenario missing")
	}
	pol := workflow.DefaultRetryPolicy()
	pol.Timeout = 60
	pol.HedgeDelay = 10
	pol.MaxAttempts = 4
	pol.RetryBudget = 2
	pol.RetryBudgetPerSec = 0.05
	pol.HedgeQueueLimit = 2
	col := telemetry.NewCollector()
	reg := telemetry.NewRegistry()
	res, err := Run(Config{
		Components:   comps,
		TrainMin:     120,
		Scheduler:    fastBrain(t),
		SearchBudget: 6,
		ClusterCfg: faas.Config{
			Invokers: 2, CPUPerInvoker: 2, MemoryPerInvokerMB: 2048,
			QueueLimit: 4, Admission: faas.AdmitDeadlineAware,
			Breaker: faas.BreakerConfig{Enabled: true},
		},
		Chaos:      scn,
		Resilience: &pol,
		PoolGuard:  true,
		Tracer:     col,
		Registry:   reg,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, col, reg
}

// TestOverloadPipelineDeterministic runs the controller twice with circuit
// breakers, admission shedding, retry budgets and the pool guard all
// enabled, and requires byte-identical span and metric dumps — the overload
// layers must draw only on the run's seeded RNG streams and virtual clock.
func TestOverloadPipelineDeterministic(t *testing.T) {
	res1, col1, reg1 := runOverloadPipeline(t, 17)
	res2, col2, reg2 := runOverloadPipeline(t, 17)

	if res1.Workflows() == 0 {
		t.Fatal("no workflows completed in the test window")
	}
	if res1.ShedInvocations() == 0 {
		t.Fatal("overload scenario armed but nothing was shed — protections untested")
	}
	var modes int
	for _, s := range col1.Spans() {
		if s.Kind == telemetry.KindPoolMode {
			modes++
		}
	}
	if modes == 0 {
		t.Fatal("pool guard armed but never entered degraded mode — guard untested")
	}
	assertNoOpenSpans(t, col1.Spans())

	var s1, s2 bytes.Buffer
	if err := col1.WriteJSONL(&s1); err != nil {
		t.Fatal(err)
	}
	if err := col2.WriteJSONL(&s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Errorf("same-seed overload runs produced different span streams (%d vs %d bytes); first divergence:\n%s",
			s1.Len(), s2.Len(), firstDivergence(s1.String(), s2.String()))
	}

	var m1, m2 bytes.Buffer
	if err := reg1.WriteJSON(&m1); err != nil {
		t.Fatal(err)
	}
	if err := reg2.WriteJSON(&m2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Errorf("same-seed overload runs produced different metric snapshots; first divergence:\n%s",
			firstDivergence(m1.String(), m2.String()))
	}

	if res1.Goodput() != res2.Goodput() || res1.ShedViolations() != res2.ShedViolations() {
		t.Errorf("summary metrics diverged: goodput %v vs %v, shed violations %v vs %v",
			res1.Goodput(), res2.Goodput(), res1.ShedViolations(), res2.ShedViolations())
	}
}

// assertNoOpenSpans fails the test when a finished run left an invocation,
// stage or workflow span open: work that never settled. Every EndSpan on
// these kinds writes fields, so an open span is one whose Fields are nil.
func assertNoOpenSpans(t *testing.T, spans []telemetry.Span) {
	t.Helper()
	var open []telemetry.Span
	for _, s := range spans {
		switch s.Kind {
		case telemetry.KindInvocation, telemetry.KindStage, telemetry.KindWorkflow:
			if s.Fields == nil {
				open = append(open, s)
			}
		}
	}
	if len(open) > 0 {
		t.Errorf("%d spans left open at the end of the run; first: %+v", len(open), open[0])
	}
}

// firstDivergence renders the first differing line pair of two dumps so a
// determinism regression points straight at the leaking subsystem.
func firstDivergence(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return "line " + strconv.Itoa(i+1) + ":\n  run1: " + la[i] + "\n  run2: " + lb[i]
		}
	}
	return "dumps differ only in length"
}
