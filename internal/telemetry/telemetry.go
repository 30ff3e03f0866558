// Package telemetry is the observability layer of the reproduction: a span
// tracer recording one span per function invocation and one parent span per
// workflow DAG execution (plus point events for pool-sizing decisions, BO
// iterations and container lifecycle), and a metric registry of counters,
// gauges and fixed-bucket streaming histograms.
//
// The paper's whole evaluation (§8) is built on observations the platform
// emits — per-stage cold/warm starts, tail latency distributions, pool-size
// decisions over time, BO convergence — and this package is where those
// observations are collected and exported (JSONL span streams, JSON metric
// snapshots; see DESIGN.md §6).
//
// Instrumented subsystems hold a *Collector and a *Registry and call them on
// their hot paths. Both are nil-safe: a nil Collector records no spans and a
// nil Registry hands out nil handles, so disabled telemetry costs a single
// branch per call. Everything is deterministic: span IDs are assigned in call
// order, and exports emit spans and metric names in sorted, stable order, so
// two runs with the same seed produce byte-identical output.
package telemetry

// SpanID identifies a recorded span. The zero ID means "no span": a nil
// Collector returns it, and instrumented code can skip building end-of-span
// fields when it sees it.
type SpanID uint64

// Fields carries numeric span attributes. EndSpan and Point copy a Fields
// map into the collector's field arena sorted by key, and the JSONL writer
// and the checkpoint record emit them in that order, so map iteration order
// never reaches an export. The caller keeps the map and may refill it.
type Fields map[string]float64

// Span kinds emitted by the instrumented subsystems.
const (
	// KindWorkflow is the parent span of one workflow DAG execution.
	KindWorkflow = "workflow"
	// KindStage is one stage of a workflow DAG (child of a workflow span).
	KindStage = "stage"
	// KindInvocation is one function invocation: queue wait + cold-start
	// setup + execution (child of a stage span when issued by a workflow).
	KindInvocation = "invocation"
	// KindContainerCreate marks a container being provisioned.
	KindContainerCreate = "container.create"
	// KindContainerKill marks a container being evicted or expiring.
	KindContainerKill = "container.kill"
	// KindPoolDecision is one per-interval pool-sizing decision.
	KindPoolDecision = "pool.decision"
	// KindBOIteration is one Bayesian-optimization observe/refit round.
	KindBOIteration = "bo.iteration"
	// KindChaosFault is one injected fault episode (invoker crash window,
	// container-kill / init-failure window, straggler episode); the span
	// covers the fault's active window.
	KindChaosFault = "chaos.fault"
	// KindRetry marks the resilience layer scheduling a retry of a failed
	// or timed-out invocation (point; child of the stage span).
	KindRetry = "invocation.retry"
	// KindBreaker marks a per-invoker circuit-breaker state transition
	// (point; fields carry the invoker, new state and observed error rate).
	KindBreaker = "faas.breaker"
	// KindPoolMode marks the pool manager switching between model-driven
	// and degraded (recent-peak) pre-warm sizing (point).
	KindPoolMode = "pool.mode"
	// KindBODecision is one Bayesian-optimization suggestion batch: an
	// explain record carrying the posterior view (cost/latency mean and
	// uncertainty band, feasibility probability) behind the configurations
	// the engine chose to try next (point).
	KindBODecision = "bo.decision"
	// KindRunMeta is per-application run metadata (QoS target, training
	// cutoff, invoker count) emitted once at the start of the live phase so
	// post-hoc analysis (cmd/aquatrace) can attribute QoS violations
	// without re-reading the experiment configuration (point).
	KindRunMeta = "run.meta"
	// KindSchedDecision is one configuration decision by a non-BO
	// scheduler (jolteon's probabilistic-bound probe, caerus's BFS
	// best-fit step, naive's peak provisioning): the sched-subsystem
	// equivalent of bo.decision, carrying the candidate's modeled
	// latency/cost and the accept/freeze verdict (point).
	KindSchedDecision = "sched.decision"
)

// Span is one recorded interval (or point event, when Start == End).
type Span struct {
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	Kind   string  `json:"kind"`
	Name   string  `json:"name,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Fields Fields  `json:"fields,omitempty"`
}
