package faas

import "aquatope/internal/telemetry"

// Metrics is the platform's metric accumulator. It is a thin compatibility
// facade over a telemetry.Registry: every statistic the paper's evaluation
// reports — cold/warm start counts, CPU-time and memory-time cost
// components, provisioned memory-time (the Fig. 9b metric), container
// churn — lives in registry counters, plus streaming latency/exec/wait
// histograms for percentile reporting, all under the "faas." namespace.
// The accessor methods preserve the pre-registry API. It folds each result
// into those instruments and retains none: a caller that wants per-invocation
// results takes them from Invoke's done callback.
type Metrics struct {
	reg *telemetry.Registry

	coldStarts        *telemetry.Counter
	warmStarts        *telemetry.Counter
	failed            *telemetry.Counter
	timedOut          *telemetry.Counter
	shed              *telemetry.Counter
	breakerOpens      *telemetry.Counter
	breakerCloses     *telemetry.Counter
	initFailures      *telemetry.Counter
	invokerCrashes    *telemetry.Counter
	cpuTime           *telemetry.Counter
	memTime           *telemetry.Counter
	provisionedMem    *telemetry.Counter
	containersCreated *telemetry.Counter
	containersKilled  *telemetry.Counter

	latency  *telemetry.Histogram
	execTime *telemetry.Histogram
	waitTime *telemetry.Histogram
}

// NewMetricsOn returns an accumulator recording into reg (shared with other
// subsystems when the caller exports one combined snapshot). A nil reg gets
// a private registry.
func NewMetricsOn(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Metrics{
		reg:               reg,
		coldStarts:        reg.Counter(telemetry.MetricColdStarts),
		warmStarts:        reg.Counter(telemetry.MetricWarmStarts),
		failed:            reg.Counter(telemetry.MetricFailedInvocations),
		timedOut:          reg.Counter(telemetry.MetricTimedOutInvocations),
		shed:              reg.Counter(telemetry.MetricShedInvocations),
		breakerOpens:      reg.Counter(telemetry.MetricBreakerOpens),
		breakerCloses:     reg.Counter(telemetry.MetricBreakerCloses),
		initFailures:      reg.Counter(telemetry.MetricInitFailures),
		invokerCrashes:    reg.Counter(telemetry.MetricInvokerCrashes),
		cpuTime:           reg.Counter(telemetry.MetricCPUTime),
		memTime:           reg.Counter(telemetry.MetricMemTime),
		provisionedMem:    reg.Counter(telemetry.MetricProvisionedMemTime),
		containersCreated: reg.Counter(telemetry.MetricContainersCreated),
		containersKilled:  reg.Counter(telemetry.MetricContainersKilled),
		latency:           reg.Histogram(telemetry.MetricInvocationLatency),
		execTime:          reg.Histogram(telemetry.MetricInvocationExec),
		waitTime:          reg.Histogram(telemetry.MetricInvocationWait),
	}
}

// Registry returns the backing registry (for export or for registering
// further instruments alongside the platform's).
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

func (m *Metrics) record(r InvocationResult) {
	switch r.Outcome {
	case OutcomeShed:
		// Admission rejections never ran: no cost, no latency sample.
		m.shed.Inc()
		return
	case OutcomeFailed, OutcomeTimedOut:
		if r.Outcome == OutcomeFailed {
			m.failed.Inc()
		} else {
			m.timedOut.Inc()
		}
		// The partial execution still burned resources; keep the cost
		// model honest but keep failure latencies out of the success
		// histograms.
		m.cpuTime.Add(r.CostCPUTime())
		m.memTime.Add(r.CostMemTime())
		return
	}
	if r.ColdStart {
		m.coldStarts.Inc()
	} else {
		m.warmStarts.Inc()
	}
	m.cpuTime.Add(r.CostCPUTime())
	m.memTime.Add(r.CostMemTime())
	m.latency.Observe(r.Latency())
	m.execTime.Observe(r.ExecTime)
	m.waitTime.Observe(r.WaitTime)
}

func (m *Metrics) containerCreated() { m.containersCreated.Inc() }

func (m *Metrics) breakerOpened() { m.breakerOpens.Inc() }

func (m *Metrics) breakerClosed() { m.breakerCloses.Inc() }

func (m *Metrics) initFailure() { m.initFailures.Inc() }

func (m *Metrics) invokerCrashed() { m.invokerCrashes.Inc() }

func (m *Metrics) containerDied(memMB, lifetime float64) {
	m.containersKilled.Inc()
	if lifetime > 0 {
		m.provisionedMem.Add(memMB / 1024 * lifetime)
	}
}

// ColdStarts returns the number of cold-started invocations.
//
//aqualint:allow unreached test observer: TestPropertyColdWarmPartition and the metrics tests partition invocations with it
func (m *Metrics) ColdStarts() int { return int(m.coldStarts.Value()) }

// WarmStarts returns the number of warm-started invocations.
//
//aqualint:allow unreached test observer: TestPropertyColdWarmPartition and the metrics tests partition invocations with it
func (m *Metrics) WarmStarts() int { return int(m.warmStarts.Value()) }

// ProvisionedMemTime returns Σ memLimit × containerLifetime (GB-seconds):
// memory held by containers whether busy or idle.
func (m *Metrics) ProvisionedMemTime() float64 { return m.provisionedMem.Value() }

// ShedInvocations returns the number of invocations rejected by admission
// control (OutcomeShed).
func (m *Metrics) ShedInvocations() int { return int(m.shed.Value()) }

// Invocations returns the total number of terminally completed invocations,
// whatever their outcome (shed ones included: the caller got an answer).
//
//aqualint:allow unreached test observer: faas and chaos tests count terminal invocations through it
func (m *Metrics) Invocations() int {
	return m.ColdStarts() + m.WarmStarts() + int(m.failed.Value()) +
		int(m.timedOut.Value()) + m.ShedInvocations()
}

// ColdStartRate returns the fraction of invocations that were cold starts.
//
//aqualint:allow unreached test observer: faas cluster and metrics tests read it
func (m *Metrics) ColdStartRate() float64 {
	total := m.Invocations()
	if total == 0 {
		return 0
	}
	return float64(m.ColdStarts()) / float64(total)
}
