// Package faas is a discrete-event simulator of an OpenWhisk-style
// Function-as-a-Service platform: a controller load-balances invocations
// over invokers (worker servers), each of which manages per-function
// container pools with cold starts, keep-alive timers, pre-warming, memory
// capacity, and configurable CPU/memory limits per container. It replaces
// the paper's 7-server OpenWhisk deployment while reproducing the
// observable behaviour the Aquatope scheduler depends on: cold/warm start
// dynamics (including cascading cold starts across workflow stages),
// resource-dependent execution times, provisioned memory-time accounting,
// and injected interference noise.
package faas

import (
	"fmt"

	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
)

// ResourceConfig is a per-function container configuration, mirroring the
// CPU / memory / concurrency interface of major FaaS providers (§5.1).
type ResourceConfig struct {
	// CPU is the CPU limit in cores (fractions allowed).
	CPU float64
	// MemoryMB is the memory limit in megabytes.
	MemoryMB float64
	// Concurrency is the maximum number of simultaneously running
	// containers for the function (per cluster). Zero means unlimited.
	//aqualint:allow onevalue TestPropertyDemandAccounting's stranded-invocation input runs at 2 and the faas.cluster section snapshots it; ROADMAP item 14 owns the field
	Concurrency int
}

// Validate reports whether the configuration is usable.
func (c ResourceConfig) Validate() error {
	if c.CPU <= 0 {
		return fmt.Errorf("faas: non-positive CPU limit %v", c.CPU)
	}
	if c.MemoryMB <= 0 {
		return fmt.Errorf("faas: non-positive memory limit %v", c.MemoryMB)
	}
	if c.Concurrency < 0 {
		return fmt.Errorf("faas: negative concurrency %d", c.Concurrency)
	}
	return nil
}

// PerfModel describes how a function behaves under a resource
// configuration. Implementations live in internal/apps; the simulator only
// calls these hooks.
type PerfModel interface {
	// InitTime returns the container initialization time (runtime setup,
	// dependency loading, execution-context warmup) in seconds for a cold
	// container under cfg.
	InitTime(cfg ResourceConfig, rng *stats.RNG) float64
	// ExecTime returns the execution time in seconds of one invocation
	// with the given input size under cfg. cold reports whether this is
	// the first invocation in a fresh container (no cached execution
	// context — SDK clients, models, connections — so cold runs are
	// slower even after initialization, §2.2).
	ExecTime(cfg ResourceConfig, cold bool, inputSize float64, rng *stats.RNG) float64
}

// FunctionSpec registers a function with the cluster.
type FunctionSpec struct {
	Name  string
	Model PerfModel
	// TriggerType is an external feature for the prediction model
	// (0=HTTP, 1=object storage, 2=event hub, ...).
	TriggerType int
}

// Outcome is the terminal state of an invocation. Before the fault model
// existed every invocation succeeded; now results carry an explicit outcome
// instead of overloading latency with sentinel values.
type Outcome int

const (
	// OutcomeSuccess is a normally completed invocation.
	OutcomeSuccess Outcome = iota
	// OutcomeFailed is a hard fault: container init failure, container
	// kill mid-execution, or invoker crash losing the invocation.
	OutcomeFailed
	// OutcomeTimedOut is a caller-imposed deadline expiring before the
	// invocation completed (the container is reclaimed).
	OutcomeTimedOut
	// OutcomeShed is an admission-control rejection: the invocation never
	// ran because the function's bounded queue was full (or, under
	// deadline-aware shedding, its remaining latency budget was already
	// unmeetable). Shed work burns no execution resources.
	OutcomeShed
)

// String returns the outcome's wire name (used in telemetry and reports).
func (o Outcome) String() string {
	switch o {
	case OutcomeSuccess:
		return "success"
	case OutcomeFailed:
		return "failed"
	case OutcomeTimedOut:
		return "timed-out"
	case OutcomeShed:
		return "shed"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// InvocationResult reports one completed invocation.
type InvocationResult struct {
	Function   string
	SubmitTime float64
	StartTime  float64 // when execution began (after any wait/init)
	EndTime    float64
	ColdStart  bool
	WaitTime   float64 // queueing + container provisioning wait
	ExecTime   float64
	CPU        float64 // CPU limit during the run
	MemoryMB   float64
	// Outcome is the terminal state; non-success results report the time
	// actually burned (partial ExecTime) so cost accounting stays honest.
	Outcome Outcome
	// FailureReason names the fault for non-success outcomes
	// ("init-failure", "container-kill", "invoker-crash", "timeout",
	// "queue-full", "deadline-unmeetable", "unplaceable").
	FailureReason string
	// Attempt is the caller's retry attempt index (0 = first try),
	// threaded through InvokeOptions for telemetry.
	Attempt int
	Err     error
}

// OK reports whether the invocation completed successfully.
func (r InvocationResult) OK() bool { return r.Outcome == OutcomeSuccess }

// InvokeOptions parameterizes an invocation beyond the basic path.
type InvokeOptions struct {
	// InputSize is the request's input size (performance-model feature).
	InputSize float64
	// Parent links the invocation span to the issuing operation's span.
	Parent telemetry.SpanID
	// Timeout fails the invocation with OutcomeTimedOut if it has not
	// completed this many seconds after submission (0 = no deadline).
	Timeout float64
	// Attempt tags the result and span with the caller's retry attempt.
	Attempt int
}

// FaultRates are the probabilistic fault knobs of the platform, normally
// zero and driven by internal/chaos during fault windows. Draws come from a
// dedicated fault RNG so enabling them never perturbs the noise stream.
type FaultRates struct {
	// InitFailure is the probability a container's initialization fails
	// (the container dies at warm-up completion; a reserved invocation
	// fails with OutcomeFailed).
	InitFailure float64
	// ExecKill is the per-invocation probability the hosting container is
	// killed mid-execution (OOM-style), failing the invocation at a
	// uniform point of its execution.
	ExecKill float64
}

// Latency returns the invocation's end-to-end latency (submit to finish).
func (r InvocationResult) Latency() float64 { return r.EndTime - r.SubmitTime }

// CostCPUTime returns CPU-seconds consumed (CPU limit × execution time),
// the CPU component of the paper's linear cost model.
func (r InvocationResult) CostCPUTime() float64 { return r.CPU * r.ExecTime }

// CostMemTime returns GB-seconds consumed.
func (r InvocationResult) CostMemTime() float64 { return r.MemoryMB / 1024 * r.ExecTime }
