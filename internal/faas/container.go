package faas

import "aquatope/internal/sim"

// containerState tracks a container's lifecycle.
type containerState int

const (
	stateWarming containerState = iota // being created / initializing
	stateIdle                          // warm, waiting for work
	stateBusy                          // executing an invocation
	stateDead                          // terminated
)

// container is one function container on an invoker.
type container struct {
	id       int
	fn       *function
	invoker  *Invoker
	state    containerState
	cfg      ResourceConfig
	born     float64 // creation time (memory accounting starts here)
	warmAt   float64 // when initialization completed
	lastUsed float64
	// everUsed reports whether any invocation ran in this container; a
	// container's first invocation is a cold start only if the invocation
	// triggered (or waited on) its creation.
	everUsed  bool
	idleTimer *sim.Event
	// prewarmed marks containers created proactively by the pool
	// scheduler rather than on demand.
	prewarmed bool
	// initFailed marks a container whose initialization was chosen to
	// fail (FaultRates.InitFailure): it dies at warmAt instead of going
	// idle, and any invocation reserved on it fails.
	initFailed bool
	// faultKilled distinguishes fault-driven deaths (invoker crash, init
	// failure, exec kill) from benign keep-alive/eviction kills: waiters
	// on a fault-killed container fail instead of re-dispatching.
	// faultReason names the fault for failure results.
	faultKilled bool
	faultReason string
	// running/execTimer track the in-flight invocation while busy, so
	// crashes and timeouts can cancel the completion and fail it.
	running   *pendingInvocation
	execTimer *sim.Event
	// execDone and idleExpire are the completion and keep-alive expiry
	// callbacks, bound on first use and then reused, and warmDone the
	// warm-up callback, bound when the container is made; the bindings
	// outlive recycling through Cluster.spare, so arming any of the timers
	// allocates only its event.
	execDone   func()
	idleExpire func()
	warmDone   func()
}

// setState moves the container through its lifecycle, keeping its
// invoker's idle count in step. Callers accrueUtil first.
func (ct *container) setState(s containerState) {
	if ct.state == stateIdle {
		ct.invoker.idleN--
	}
	if s == stateIdle {
		ct.invoker.idleN++
	}
	ct.state = s
}
