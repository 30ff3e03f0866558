// Package runner is the parallel replication engine behind the evaluation
// harness. Every experiment in internal/experiments reduces to a batch of
// independent simulator runs (seeds × policies × configurations); the engine
// fans one batch out across a worker pool while keeping the observable
// output byte-identical to a serial run:
//
//   - every replication seeds itself from values its harness computed
//     before the batch started (the experiment's seed plus a
//     per-repetition offset), never from anything a worker shares, so the
//     randomness it sees never depends on goroutine scheduling;
//   - every replication records telemetry into its own Collector and
//     Registry, which the engine merges into the destination in submission
//     order once the whole batch has finished;
//   - results are collected by index, so aggregation code sees them in the
//     order the jobs were built, exactly as the old serial loops did.
//
// A panicking replication is recovered and surfaced as an error on the
// batch — one bad worker never deadlocks the pool.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"aquatope/internal/telemetry"
)

// Ctx is the per-replication context handed to each job.
type Ctx struct {
	// Tracer receives the replication's spans; nil (tracing off: its
	// StartSpan, EndSpan and Point do nothing) when the engine has no
	// destination collector.
	Tracer *telemetry.Collector
	// Registry receives the replication's metrics; nil (which every
	// registry method tolerates) when the engine has no destination.
	Registry *telemetry.Registry
}

// Job is one independent replication in a batch.
type Job[T any] struct {
	// Cell labels the sweep cell this replication belongs to (policy
	// name, fault rate, app — whatever the experiment sweeps); with Rep it
	// labels the replication in error messages.
	Cell string
	// Rep is the repetition index within the cell.
	Rep int
	// Run executes the replication. It must be self-contained: construct
	// apps, traces and profilers inside the job (or share only immutable
	// data), never mutate state owned by another job.
	Run func(Ctx) (T, error)
}

// Engine runs batches of replications for one experiment.
type Engine struct {
	// Experiment is the experiment id, used in error messages.
	Experiment string
	// Parallel is the worker count: 0 (or negative) means
	// runtime.GOMAXPROCS(0), 1 forces a serial run.
	Parallel int
	// Collector, when non-nil, receives every replication's spans, merged
	// in submission order after the batch completes.
	Collector *telemetry.Collector
	// Registry, when non-nil, receives every replication's metrics,
	// merged in submission order after the batch completes.
	Registry *telemetry.Registry
}

// Workers returns the effective worker count.
func (e *Engine) Workers() int {
	if e.Parallel > 0 {
		return e.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes one batch and returns the results in job order. All jobs run
// to completion even when some fail; the returned error joins every
// replication failure (including recovered panics) in job order. An Engine
// may run several batches sequentially (multi-phase experiments), but a
// single Engine must not run batches concurrently — telemetry merge order
// would no longer be well-defined.
func Run[T any](e *Engine, jobs []Job[T]) ([]T, error) {
	n := len(jobs)
	if n == 0 {
		return nil, nil
	}
	workers := e.Workers()
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	errs := make([]error, n)
	var collectors []*telemetry.Collector
	if e.Collector != nil {
		collectors = make([]*telemetry.Collector, n)
	}
	var registries []*telemetry.Registry
	if e.Registry != nil {
		registries = make([]*telemetry.Registry, n)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				var ctx Ctx
				if collectors != nil {
					collectors[i] = telemetry.NewCollector()
					ctx.Tracer = collectors[i]
				}
				if registries != nil {
					registries[i] = telemetry.NewRegistry()
					ctx.Registry = registries[i]
				}
				results[i], errs[i] = runOne(jobs[i], ctx)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Merge per-replication telemetry in submission order: this, plus
	// seeds fixed before the batch started, is why -parallel 1 and
	// -parallel N produce byte-identical span streams and metric snapshots.
	for i := 0; i < n; i++ {
		if collectors != nil {
			e.Collector.Merge(collectors[i])
		}
		if registries != nil {
			e.Registry.Merge(registries[i])
		}
	}

	var failures []error
	for i, err := range errs {
		if err != nil {
			failures = append(failures, fmt.Errorf("replication %s/%s#%d: %w",
				e.Experiment, jobs[i].Cell, jobs[i].Rep, err))
		}
	}
	return results, errors.Join(failures...)
}

// MustRun is Run for harnesses that follow the experiments package's
// panic-on-failure convention.
func MustRun[T any](e *Engine, jobs []Job[T]) []T {
	out, err := Run(e, jobs)
	if err != nil {
		panic(err)
	}
	return out
}

// runOne executes a single job, converting a panic into an error so one bad
// replication cannot take down the worker pool.
func runOne[T any](job Job[T], ctx Ctx) (result T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return job.Run(ctx)
}
