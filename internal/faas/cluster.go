package faas

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"aquatope/internal/sim"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
)

// Noise models platform interference (§2.2 "Uncertainty in FaaS"): Gaussian
// execution-time jitter plus irregular heavy outliers from colocated
// background jobs.
type Noise struct {
	// GaussianStd is the relative standard deviation of inherent noise.
	GaussianStd float64
	// OutlierRate is the per-invocation probability of an interference
	// spike (non-Gaussian noise).
	OutlierRate float64
	// OutlierScale is the maximum slowdown multiplier of a spike.
	OutlierScale float64
}

// apply perturbs a nominal execution time.
func (n Noise) apply(t float64, rng *stats.RNG) float64 {
	if n.GaussianStd > 0 {
		t *= math.Max(0.1, 1+rng.Normal(0, n.GaussianStd))
	}
	if n.OutlierRate > 0 && rng.Bernoulli(n.OutlierRate) {
		hi := n.OutlierScale
		if hi < 1.5 {
			hi = 1.5
		}
		t *= rng.Uniform(1.5, hi)
	}
	return t
}

// Invoker is one worker server hosting containers.
type Invoker struct {
	ID int
	// CPUCapacity in cores and MemoryCapacityMB bound colocation.
	CPUCapacity      float64
	MemoryCapacityMB float64

	cluster    *Cluster
	containers map[*container]struct{}
	memUsedMB  float64
	cpuBusy    float64
	// idleN counts the resident containers in stateIdle. container.setState
	// maintains it so accrueUtil need not walk the container set.
	idleN int
	// breaker is the invoker's circuit breaker (nil unless
	// Config.Breaker.Enabled).
	breaker *breaker
	// down marks a crashed invoker: it hosts no containers and the
	// controller routes around it until recovery.
	down bool
	// straggle is a multiplicative execution slowdown (chaos straggler
	// episodes); values <= 1 mean healthy.
	straggle float64
	// util holds the invoker's utilization time integrals (utilization.go).
	util invokerUtil
}

// MemoryInUseMB returns the memory currently claimed by containers.
//
//aqualint:allow unreached test observer: faas fault, overload and property tests and pool's rewarm test read it
func (iv *Invoker) MemoryInUseMB() float64 { return iv.memUsedMB }

// function is the cluster-side state of a registered function.
type function struct {
	spec FunctionSpec
	// regCfg is the configuration the function was registered with; Reset
	// puts cfg back to it.
	regCfg        ResourceConfig
	cfg           ResourceConfig
	keepAlive     float64
	prewarmTarget int
	// containers across all invokers, by state bookkeeping.
	idle    []*container
	warming []*container // not yet reserved
	busyN   int
	// inFlight counts invocations dispatched to a container (possibly
	// still warming) but not yet completed; the concurrency limit is
	// enforced against it.
	inFlight int
	// queue of invocations waiting for concurrency or capacity, bounded
	// by queueLimit (0 = unbounded) under the cluster's admission policy.
	queue      []*pendingInvocation
	queueLimit int
	// execEWMA is the function's observed service time (exponentially
	// weighted over successful runs); deadline-aware shedding uses it to
	// spot queued work whose deadline is already unmeetable.
	execEWMA float64
	// reserved warming containers mapped to their waiters.
	nextContainerID int
}

// pendingInvocation is one attempt from submission to its terminal result.
// Records are recycled through the cluster's free list (acquirePending,
// releasePending).
type pendingInvocation struct {
	fn        *function
	inputSize float64
	submitAt  float64
	done      func(InvocationResult)
	// span is the invocation's telemetry span (0 when tracing is off).
	span telemetry.SpanID
	// attempt tags results and spans with the caller's retry attempt.
	attempt int
	// timeoutEv is the armed submission deadline (nil without a timeout);
	// timeout keeps its horizon for deadline-aware shedding.
	timeoutEv *sim.Event
	timeout   float64
	// ct is the container the invocation is reserved on or running in
	// (nil while queued).
	ct *container
	// startTime, cold and execTime (the realized service time the
	// completion event was scheduled with) are valid once execution began.
	startTime float64
	execTime  float64
	cold      bool
	// settled marks a delivered terminal result; late container events
	// (a reserved container finishing init after a timeout) check it.
	settled bool
	// warming marks a warm-wait event armed for the record: it is reserved
	// on a container still initializing, and the event still refers to it
	// after a timeout settles it, so the record is released when the event
	// fires, not on delivery.
	warming bool
	// onTimeout and onWarm are the deadline and warm-wait callbacks, bound
	// once per record, so arming either timer allocates only its event.
	onTimeout, onWarm func()
}

// Config configures a Cluster.
type Config struct {
	// Invokers is the number of worker servers (paper: 6 workers).
	Invokers int
	// CPUPerInvoker is each worker's core count.
	CPUPerInvoker float64
	// MemoryPerInvokerMB is each worker's container memory capacity.
	MemoryPerInvokerMB float64
	// DefaultKeepAlive is the idle container lifetime (providers: 10 min).
	DefaultKeepAlive float64
	// Noise is the platform interference model.
	Noise Noise
	// QueueLimit bounds every function's pending queue (0 = unbounded,
	// the historical behaviour).
	QueueLimit int
	// Admission selects what is shed when a bounded queue overflows.
	Admission AdmissionPolicy
	// Breaker configures the per-invoker circuit breakers (off by
	// default).
	Breaker BreakerConfig
	// Registry, when non-nil, backs the cluster's Metrics so platform
	// counters and latency histograms land in a snapshot shared with
	// other subsystems.
	Registry *telemetry.Registry
	Seed     int64
}

func (c Config) withDefaults() Config {
	if c.Invokers <= 0 {
		c.Invokers = 6
	}
	if c.CPUPerInvoker <= 0 {
		c.CPUPerInvoker = 40
	}
	if c.MemoryPerInvokerMB <= 0 {
		c.MemoryPerInvokerMB = 128 * 1024
	}
	if c.DefaultKeepAlive <= 0 {
		c.DefaultKeepAlive = 600
	}
	if c.QueueLimit < 0 {
		c.QueueLimit = 0
	}
	return c
}

// Cluster is the simulated FaaS platform.
type Cluster struct {
	cfg      Config
	eng      *sim.Engine
	rng      *stats.RNG
	invokers []*Invoker
	fns      map[string]*function
	// fnList is fns in registration order, so cluster-wide passes cost no
	// lookups by name.
	fnList  []*function
	metrics *Metrics
	tracer  *telemetry.Collector
	// spanFields is the one Fields map the cluster fills for every span it
	// ends and every point it records (fields hands it out emptied): the
	// collector copies what it is handed.
	spanFields telemetry.Fields
	// queued is the number of invocations parked across all function
	// queues; while it is zero a drain pass has nothing to do.
	queued   int
	draining bool // reentrancy guard for queue draining

	// faults are the active probabilistic fault rates (normally zero);
	// faultRNG is a dedicated stream so enabling them mid-run never
	// perturbs the noise/performance draws of a same-seed run. It is built
	// when a fault first draws from it (faultStream): most clusters never
	// arm a fault, and a stream costs ~5 KB.
	faults        FaultRates
	faultRNG      *stats.RNG
	onInvokerDown []func(invoker int)

	// free holds delivered invocation records no event refers to any more,
	// last released first; InvokeOpts reuses them. It is a plain slice so
	// reuse follows the event sequence alone, and it is not snapshotted.
	free []*pendingInvocation
	// spare holds the containers a finished run left resident, which Reset
	// took back; spawnContainer reuses them, last first. Only Reset adds to
	// it: a container killed mid-run may still be named by a queued event.
	spare []*container
	// sorted is residents' scratch slice.
	sorted []*container
}

// NewCluster builds a cluster on the given simulation engine.
func NewCluster(eng *sim.Engine, cfg Config) *Cluster {
	c := &Cluster{eng: eng, fns: make(map[string]*function)}
	c.init(cfg)
	return c
}

// Reset returns a cluster whose engine has drained to the state NewCluster
// with cfg, followed by the same RegisterFunction calls, builds: the noise
// and fault streams are reseeded in place, every invoker is emptied, every
// function is back at its registered configuration, and the containers the
// last run left resident go to the spare list for spawnContainer to reuse.
// The tracer and the OnInvokerDown hooks are dropped. Recycling is safe
// only because no event is left to name a container, so resetting a
// cluster whose engine still has events pending is a logic bug and panics.
func (c *Cluster) Reset(cfg Config) {
	if c.eng.Pending() > 0 {
		panic("faas: reset with events pending")
	}
	c.init(cfg)
}

// init is NewCluster's and Reset's one initialization, over whatever
// storage the cluster already holds.
func (c *Cluster) init(cfg Config) {
	cfg = cfg.withDefaults()
	c.cfg = cfg
	if c.rng == nil {
		c.rng = stats.NewRNG(cfg.Seed)
	} else {
		c.rng.Reseed(cfg.Seed)
	}
	if c.faultRNG != nil {
		c.faultRNG.Reseed(c.faultSeed())
	}
	if c.metrics == nil || c.metrics.reg != cfg.Registry {
		c.metrics = NewMetricsOn(cfg.Registry)
	}
	c.tracer = nil
	clear(c.onInvokerDown)
	c.onInvokerDown = c.onInvokerDown[:0]
	c.faults = FaultRates{}
	c.queued, c.draining = 0, false

	for _, iv := range c.invokers {
		c.spare = append(c.spare, c.residents(iv)...)
	}
	clear(c.sorted)
	keep := min(cfg.Invokers, len(c.invokers))
	clear(c.invokers[keep:])
	c.invokers = c.invokers[:keep]
	for len(c.invokers) < cfg.Invokers {
		c.invokers = append(c.invokers, &Invoker{containers: make(map[*container]struct{})})
	}
	for i, iv := range c.invokers {
		clear(iv.containers)
		*iv = Invoker{
			ID:               i,
			CPUCapacity:      cfg.CPUPerInvoker,
			MemoryCapacityMB: cfg.MemoryPerInvokerMB,
			cluster:          c,
			containers:       iv.containers,
			breaker:          iv.breaker,
		}
		switch {
		case !cfg.Breaker.Enabled:
			iv.breaker = nil
		case iv.breaker == nil:
			iv.breaker = &breaker{}
		default:
			*iv.breaker = breaker{}
		}
	}

	for _, fn := range c.fnList {
		clear(fn.idle[:cap(fn.idle)])
		clear(fn.warming[:cap(fn.warming)])
		clear(fn.queue[:cap(fn.queue)])
		*fn = function{
			spec:       fn.spec,
			regCfg:     fn.regCfg,
			cfg:        fn.regCfg,
			keepAlive:  cfg.DefaultKeepAlive,
			queueLimit: cfg.QueueLimit,
			idle:       fn.idle[:0],
			warming:    fn.warming[:0],
			queue:      fn.queue[:0],
		}
	}
}

// residents returns iv's resident containers sorted by (function name, id),
// in a scratch slice valid until the next call: the pointer-keyed map's
// iteration order must reach neither the event sequence nor a digest.
func (c *Cluster) residents(iv *Invoker) []*container {
	cts := c.sorted[:0]
	for ct := range iv.containers {
		cts = append(cts, ct)
	}
	slices.SortFunc(cts, func(a, b *container) int {
		if n := strings.Compare(a.fn.spec.Name, b.fn.spec.Name); n != 0 {
			return n
		}
		return cmp.Compare(a.id, b.id)
	})
	c.sorted = cts
	return cts
}

// faultSeed is the seed of the cluster's fault stream.
func (c *Cluster) faultSeed() int64 { return c.cfg.Seed ^ 0x5eed_c4a0_5 }

// faultStream returns the fault stream, building it on first use.
func (c *Cluster) faultStream() *stats.RNG {
	if c.faultRNG == nil {
		c.faultRNG = stats.NewRNG(c.faultSeed())
	}
	return c.faultRNG
}

// Engine returns the underlying simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// SetTracer installs the collector receiving invocation spans and container
// lifecycle events; nil turns tracing off.
func (c *Cluster) SetTracer(t *telemetry.Collector) { c.tracer = t }

// Tracer returns the cluster's collector (nil when tracing is off).
func (c *Cluster) Tracer() *telemetry.Collector { return c.tracer }

// Metrics returns the cluster's metric accumulator.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// Invokers returns the cluster's worker servers.
func (c *Cluster) Invokers() []*Invoker { return c.invokers }

// RegisterFunction adds a function with an initial resource configuration.
func (c *Cluster) RegisterFunction(spec FunctionSpec, cfg ResourceConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if _, dup := c.fns[spec.Name]; dup {
		return fmt.Errorf("faas: duplicate function %q", spec.Name)
	}
	fn := &function{spec: spec, regCfg: cfg, cfg: cfg,
		keepAlive: c.cfg.DefaultKeepAlive, queueLimit: c.cfg.QueueLimit}
	c.fns[spec.Name] = fn
	c.fnList = append(c.fnList, fn)
	return nil
}

// SetResourceConfig updates a function's container configuration; new
// containers use it, existing ones keep theirs (matching OpenWhisk, where
// configuration changes roll out with container churn).
func (c *Cluster) SetResourceConfig(name string, cfg ResourceConfig) error {
	fn, ok := c.fns[name]
	if !ok {
		return fmt.Errorf("faas: unknown function %q", name)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	fn.cfg = cfg
	return nil
}

// SetKeepAlive sets the idle-container keep-alive duration for a function.
func (c *Cluster) SetKeepAlive(name string, seconds float64) error {
	fn, ok := c.fns[name]
	if !ok {
		return fmt.Errorf("faas: unknown function %q", name)
	}
	fn.keepAlive = seconds
	// Re-arm idle timers with the new horizon.
	for _, ct := range fn.idle {
		c.armIdleTimer(ct)
	}
	return nil
}

// Functions returns the registered function names in registration order. It
// copies the list on every call, so it is for set-up and reporting; hot paths
// that only need membership use HasFunction.
func (c *Cluster) Functions() []string {
	names := make([]string, len(c.fnList))
	for i, fn := range c.fnList {
		names[i] = fn.spec.Name
	}
	return names
}

// HasFunction reports whether a function of that name is registered.
func (c *Cluster) HasFunction(name string) bool {
	_, ok := c.fns[name]
	return ok
}

// Demand returns the function's instantaneous demand: invocations running
// or reserved on containers plus those queued — the quantity the container
// pool must cover to avoid cold starts.
func (c *Cluster) Demand(name string) int {
	fn, ok := c.fns[name]
	if !ok {
		return 0
	}
	return fn.inFlight + len(fn.queue)
}

// WarmCount returns (idle, warming, busy) container counts for a function.
func (c *Cluster) WarmCount(name string) (idle, warming, busy int) {
	fn, ok := c.fns[name]
	if !ok {
		return 0, 0, 0
	}
	return len(fn.idle), len(fn.warming), fn.busyN
}

// SetPrewarmTarget instructs the cluster to keep n containers alive for the
// function (the dynamic pre-warmed container pool interface, §4.3): missing
// containers are created proactively; surplus idle ones are terminated.
func (c *Cluster) SetPrewarmTarget(name string, n int) error {
	fn, ok := c.fns[name]
	if !ok {
		return fmt.Errorf("faas: unknown function %q", name)
	}
	if n < 0 {
		n = 0
	}
	fn.prewarmTarget = n
	alive := len(fn.idle) + len(fn.warming) + fn.busyN
	if alive < n {
		for i := 0; i < n-alive; i++ {
			ct := c.spawnContainer(fn, true)
			if ct == nil {
				break // out of capacity
			}
		}
	} else if alive > n {
		// Terminate surplus idle containers, least recently used first.
		surplus := alive - n
		for surplus > 0 && len(fn.idle) > 0 {
			ct := c.lruIdle(fn)
			c.killContainer(ct)
			surplus--
		}
	}
	return nil
}

// lruIdle returns the least-recently-used idle container of fn.
func (c *Cluster) lruIdle(fn *function) *container {
	var lru *container
	for _, ct := range fn.idle {
		if lru == nil || ct.lastUsed < lru.lastUsed {
			lru = ct
		}
	}
	return lru
}

// Invoke submits an invocation; done is called on completion (may be nil).
func (c *Cluster) Invoke(name string, inputSize float64, done func(InvocationResult)) error {
	return c.InvokeOpts(name, InvokeOptions{InputSize: inputSize}, done)
}

// InvokeOpts submits an invocation with full options (parent span, deadline,
// attempt tag). done always receives exactly one terminal result — success,
// failure, or timeout.
func (c *Cluster) InvokeOpts(name string, opts InvokeOptions, done func(InvocationResult)) error {
	fn, ok := c.fns[name]
	if !ok {
		return fmt.Errorf("faas: unknown function %q", name)
	}
	p := c.acquirePending()
	p.fn = fn
	p.inputSize = opts.InputSize
	p.submitAt = c.eng.Now()
	p.done = done
	p.attempt = opts.Attempt
	p.timeout = opts.Timeout
	p.span = c.tracer.StartSpan(telemetry.KindInvocation, name, opts.Parent, p.submitAt)
	if opts.Timeout > 0 {
		p.timeoutEv = c.eng.After(opts.Timeout, p.onTimeout)
	}
	c.dispatch(fn, p, false)
	return nil
}

// acquirePending takes the last released invocation record off the free
// list and clears it but for its bound callbacks, or makes one and binds
// them.
func (c *Cluster) acquirePending() *pendingInvocation {
	n := len(c.free)
	if n == 0 {
		p := &pendingInvocation{}
		p.onTimeout = func() { c.timeoutPending(p.fn, p) }
		p.onWarm = func() { c.warmWaitDone(p) }
		return p
	}
	p := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	*p = pendingInvocation{onTimeout: p.onTimeout, onWarm: p.onWarm}
	return p
}

// releasePending returns a delivered record to the free list. It keeps its
// state until reuse, so CheckIndexes can tell a record released too early;
// only the caller's callback is dropped.
func (c *Cluster) releasePending(p *pendingInvocation) {
	p.done = nil
	c.free = append(c.free, p)
}

// waitWarm reserves ct for p and arms the warm-wait event that runs p on
// it once initialization completes.
func (c *Cluster) waitWarm(ct *container, p *pendingInvocation, wait float64) {
	p.ct = ct
	p.warming = true
	c.eng.After(wait, p.onWarm)
}

// warmWaitDone is the warm-wait event (pendingInvocation.onWarm). A record
// that timed out while it waited was delivered already and is released
// here, the last place that refers to it.
func (c *Cluster) warmWaitDone(p *pendingInvocation) {
	p.warming = false
	settled := p.settled
	c.runOn(p.ct, p, true)
	if settled {
		c.releasePending(p)
	}
}

// dispatch places an invocation on a container or queues it. requeue marks
// work that was already admitted (popped by drainQueue, or bounced off a
// reclaimed container): it re-enters at the queue's front — preserving FIFO
// order — and is never re-subjected to admission control. It returns false
// when the invocation was parked in the queue (or shed), true when it is on
// its way to a container.
func (c *Cluster) dispatch(fn *function, p *pendingInvocation, requeue bool) bool {
	limit := fn.cfg.Concurrency
	if limit > 0 && fn.inFlight >= limit {
		c.enqueue(fn, p, requeue)
		return false
	}
	// 1. Idle warm container → warm start.
	if len(fn.idle) > 0 {
		ct := fn.idle[len(fn.idle)-1]
		fn.idle = fn.idle[:len(fn.idle)-1]
		fn.inFlight++
		c.runOn(ct, p, false)
		return true
	}
	// 2. Unreserved warming container → wait for it (cold experience).
	if len(fn.warming) > 0 {
		ct := fn.warming[len(fn.warming)-1]
		fn.warming = fn.warming[:len(fn.warming)-1]
		fn.inFlight++
		wait := ct.warmAt - c.eng.Now()
		if wait < 0 {
			wait = 0
		}
		c.waitWarm(ct, p, wait)
		return true
	}
	// 3. New container → cold start.
	ct := c.spawnContainer(fn, false)
	if ct == nil {
		if !c.everFits(fn.cfg.MemoryMB) {
			// No invoker could hold the container even empty: queued, the
			// invocation would wait forever.
			c.shed(fn, p, "unplaceable")
			return false
		}
		// No capacity anywhere: queue until a container dies.
		c.enqueue(fn, p, requeue)
		return false
	}
	// Reserve it immediately.
	fn.warming = fn.warming[:len(fn.warming)-1]
	fn.inFlight++
	c.waitWarm(ct, p, ct.warmAt-c.eng.Now())
	return true
}

// enqueue parks an invocation in the function's queue. Already-admitted
// work (front=true) re-enters at the head, bypassing admission control;
// fresh arrivals join the tail after passing the admission policy.
func (c *Cluster) enqueue(fn *function, p *pendingInvocation, front bool) {
	if front {
		fn.queue = append(fn.queue, nil)
		copy(fn.queue[1:], fn.queue)
		fn.queue[0] = p
		c.queued++
		return
	}
	if !c.admit(fn, p) {
		return // shed; terminal result already delivered
	}
	fn.queue = append(fn.queue, p)
	c.queued++
}

// spawnContainer creates a container on the best invoker, evicting idle
// LRU containers cluster-wide if memory is tight. Returns nil when no
// capacity can be freed. The new container is appended to fn.warming.
func (c *Cluster) spawnContainer(fn *function, prewarmed bool) *container {
	iv := c.pickInvoker(fn.cfg.MemoryMB)
	for iv == nil {
		if !c.evictOneIdle() {
			return nil
		}
		iv = c.pickInvoker(fn.cfg.MemoryMB)
	}
	fn.nextContainerID++
	ct := c.newContainer()
	ct.id = fn.nextContainerID
	ct.fn = fn
	ct.invoker = iv
	ct.state = stateWarming
	ct.cfg = fn.cfg
	ct.born = c.eng.Now()
	ct.prewarmed = prewarmed
	init := fn.spec.Model.InitTime(ct.cfg, c.rng)
	ct.warmAt = c.eng.Now() + init
	if c.faults.InitFailure > 0 && c.faultStream().Bernoulli(c.faults.InitFailure) {
		ct.initFailed = true
	}
	c.accrueUtil(iv)
	iv.containers[ct] = struct{}{}
	iv.memUsedMB += ct.cfg.MemoryMB
	iv.util.created++
	fn.warming = append(fn.warming, ct)
	c.metrics.containerCreated()
	if c.tracer.Enabled() {
		pre := 0.0
		if prewarmed {
			pre = 1
		}
		f := c.fields()
		f["container"] = float64(ct.id)
		f["invoker"] = float64(iv.ID)
		f["mem_mb"] = ct.cfg.MemoryMB
		f["prewarmed"] = pre
		f["init_s"] = init
		c.tracer.Point(telemetry.KindContainerCreate, fn.spec.Name, 0, c.eng.Now(), f)
	}
	c.eng.Schedule(ct.warmAt, ct.warmDone)
	return ct
}

// newContainer takes the last spare container and clears it but for its
// bound callbacks, or makes one and binds its warm-up callback.
func (c *Cluster) newContainer() *container {
	n := len(c.spare)
	if n == 0 {
		ct := &container{}
		ct.warmDone = func() { c.finishWarmUp(ct) }
		return ct
	}
	ct := c.spare[n-1]
	c.spare[n-1] = nil
	c.spare = c.spare[:n-1]
	*ct = container{execDone: ct.execDone, idleExpire: ct.idleExpire, warmDone: ct.warmDone}
	return ct
}

// finishWarmUp is a container's warm-up event (container.warmDone): an
// unreserved warming container turns idle, or dies if its initialization
// failed. Reserved ones are driven by their waiter.
func (c *Cluster) finishWarmUp(ct *container) {
	if ct.state != stateWarming {
		return // reserved/killed meanwhile
	}
	for i, w := range ct.fn.warming {
		if w == ct {
			if ct.initFailed {
				// Initialization failed: the container dies on
				// the spot instead of going idle.
				c.faultKillContainer(ct, "init-failure")
				return
			}
			c.accrueUtil(ct.invoker)
			ct.setState(stateIdle)
			ct.fn.warming = append(ct.fn.warming[:i], ct.fn.warming[i+1:]...)
			ct.fn.idle = append(ct.fn.idle, ct)
			ct.lastUsed = c.eng.Now()
			c.armIdleTimer(ct)
			c.drainAllQueues()
			return
		}
	}
}

// pickInvoker returns the invoker with the most free memory that fits memMB.
// Crashed invokers — and invokers whose circuit breaker is open — are routed
// around until they recover.
func (c *Cluster) pickInvoker(memMB float64) *Invoker {
	var best *Invoker
	var bestFree float64
	for _, iv := range c.invokers {
		if iv.down || !c.breakerAllows(iv) {
			continue
		}
		free := iv.MemoryCapacityMB - iv.memUsedMB
		if free >= memMB && (best == nil || free > bestFree) {
			best = iv
			bestFree = free
		}
	}
	return best
}

// everFits reports whether some invoker's capacity holds a memMB container,
// whatever it hosts now and whether or not it is up.
func (c *Cluster) everFits(memMB float64) bool {
	for _, iv := range c.invokers {
		if iv.MemoryCapacityMB >= memMB {
			return true
		}
	}
	return false
}

// evictOneIdle terminates the cluster-wide LRU idle container. It returns
// false when no idle container exists.
func (c *Cluster) evictOneIdle() bool {
	var lru *container
	for _, fn := range c.fnList {
		for _, ct := range fn.idle {
			if lru == nil || ct.lastUsed < lru.lastUsed {
				lru = ct
			}
		}
	}
	if lru == nil {
		return false
	}
	c.killContainer(lru)
	return true
}

// runOn executes a pending invocation on a container.
func (c *Cluster) runOn(ct *container, p *pendingInvocation, coldExperience bool) {
	fn := ct.fn
	if p.settled {
		// The invocation timed out while reserved here. A healthy
		// initialized container joins the idle pool instead of dying.
		if ct.state == stateWarming {
			if ct.initFailed {
				c.faultKillContainer(ct, "init-failure")
			} else {
				c.accrueUtil(ct.invoker)
				ct.setState(stateIdle)
				ct.lastUsed = c.eng.Now()
				fn.idle = append(fn.idle, ct)
				c.armIdleTimer(ct)
				c.drainAllQueues()
			}
		}
		return
	}
	if ct.state == stateDead {
		fn.inFlight--
		if ct.faultKilled {
			// The reserved container was lost to a fault: surface the
			// failure to the caller (the resilience layer may retry).
			c.failPending(fn, p, OutcomeFailed, ct.faultReason, ct)
			c.drainAllQueues()
		} else {
			// Benign keep-alive race: the container was reclaimed while
			// the waiter slept; re-dispatch (already admitted).
			c.dispatch(fn, p, true)
		}
		return
	}
	if ct.state == stateWarming && ct.initFailed {
		// Reserved container whose initialization failed at warm-up.
		fn.inFlight--
		c.faultKillContainer(ct, "init-failure")
		c.failPending(fn, p, OutcomeFailed, "init-failure", ct)
		c.drainAllQueues()
		return
	}
	if ct.idleTimer != nil {
		ct.idleTimer.Cancel()
		ct.idleTimer = nil
	}
	c.accrueUtil(ct.invoker)
	ct.setState(stateBusy)
	fn.busyN++
	cold := coldExperience || !ct.everUsed && !warmedAhead(ct, c.eng.Now())
	ct.everUsed = true
	p.ct = ct
	p.cold = cold

	p.startTime = c.eng.Now()
	exec := fn.spec.Model.ExecTime(ct.cfg, cold, p.inputSize, c.rng)
	// CPU contention: when the invoker's aggregate demand exceeds its
	// capacity, running containers slow down proportionally.
	iv := ct.invoker
	iv.cpuBusy += ct.cfg.CPU
	if iv.cpuBusy > iv.CPUCapacity {
		exec *= iv.cpuBusy / iv.CPUCapacity
	}
	exec = c.cfg.Noise.apply(exec, c.rng)
	if iv.straggle > 1 {
		// Straggler episode: everything on this invoker runs slow.
		exec *= iv.straggle
	}
	// Fault model: the hosting container may be killed mid-execution
	// (OOM-style), failing the invocation partway through.
	if c.faults.ExecKill > 0 && c.faultStream().Bernoulli(c.faults.ExecKill) {
		killAt := exec * c.faultStream().Float64()
		ct.running = p
		ct.execTimer = c.eng.After(killAt, func() {
			c.abortRun(ct, p, OutcomeFailed, "container-kill")
		})
		return
	}

	ct.running = p
	p.execTime = exec
	if ct.execDone == nil {
		ct.execDone = func() { c.finishRun(ct) }
	}
	ct.execTimer = c.eng.After(exec, ct.execDone)
}

// finishRun is a busy container's completion event (container.execDone):
// the invocation in ct.running succeeded after p.execTime seconds.
func (c *Cluster) finishRun(ct *container) {
	p, iv, fn := ct.running, ct.invoker, ct.fn
	c.accrueUtil(iv)
	ct.execTimer = nil
	ct.running = nil
	iv.cpuBusy -= ct.cfg.CPU
	fn.busyN--
	fn.inFlight--
	// Fold the realized service time into the function's EWMA
	// (deadline-aware shedding's estimate of "one more run").
	if fn.execEWMA <= 0 {
		fn.execEWMA = p.execTime
	} else {
		fn.execEWMA = 0.25*p.execTime + 0.75*fn.execEWMA
	}
	res := InvocationResult{
		Function:   fn.spec.Name,
		SubmitTime: p.submitAt,
		StartTime:  p.startTime,
		EndTime:    c.eng.Now(),
		ColdStart:  p.cold,
		WaitTime:   p.startTime - p.submitAt,
		ExecTime:   p.execTime,
		CPU:        ct.cfg.CPU,
		MemoryMB:   ct.cfg.MemoryMB,
		Outcome:    OutcomeSuccess,
		Attempt:    p.attempt,
	}
	ct.setState(stateIdle)
	ct.lastUsed = c.eng.Now()
	fn.idle = append(fn.idle, ct)
	c.armIdleTimer(ct)
	c.deliver(p, res, ct)
	c.drainAllQueues()
}

// abortRun terminates a busy container's in-flight invocation: the
// completion event is canceled, the container dies, and the caller receives
// a terminal non-success result reporting the execution time actually
// burned. Shared by exec-kills, invoker crashes and deadline expiry.
func (c *Cluster) abortRun(ct *container, p *pendingInvocation, outcome Outcome, reason string) {
	iv := ct.invoker
	fn := ct.fn
	if ct.execTimer != nil {
		ct.execTimer.Cancel()
		ct.execTimer = nil
	}
	c.accrueUtil(iv)
	ct.running = nil
	iv.cpuBusy -= ct.cfg.CPU
	fn.busyN--
	fn.inFlight--
	now := c.eng.Now()
	res := InvocationResult{
		Function:      fn.spec.Name,
		SubmitTime:    p.submitAt,
		StartTime:     p.startTime,
		EndTime:       now,
		ColdStart:     p.cold,
		WaitTime:      p.startTime - p.submitAt,
		ExecTime:      now - p.startTime,
		CPU:           ct.cfg.CPU,
		MemoryMB:      ct.cfg.MemoryMB,
		Outcome:       outcome,
		FailureReason: reason,
		Attempt:       p.attempt,
		Err:           fmt.Errorf("faas: %s %s: %s", fn.spec.Name, outcome, reason),
	}
	c.faultKillContainer(ct, reason)
	c.deliver(p, res, ct)
	c.drainAllQueues()
}

// failPending delivers a terminal non-success result for an invocation that
// never reached (or lost) its container. ct supplies configuration context
// when known (may be nil or already dead).
func (c *Cluster) failPending(fn *function, p *pendingInvocation, outcome Outcome, reason string, ct *container) {
	now := c.eng.Now()
	cfg := fn.cfg
	if ct != nil {
		cfg = ct.cfg
	}
	if reason == "" {
		reason = "fault"
	}
	res := InvocationResult{
		Function:      fn.spec.Name,
		SubmitTime:    p.submitAt,
		StartTime:     now,
		EndTime:       now,
		WaitTime:      now - p.submitAt,
		CPU:           cfg.CPU,
		MemoryMB:      cfg.MemoryMB,
		Outcome:       outcome,
		FailureReason: reason,
		Attempt:       p.attempt,
		Err:           fmt.Errorf("faas: %s %s: %s", fn.spec.Name, outcome, reason),
	}
	c.deliver(p, res, ct)
}

// fields returns the cluster's span-field map, emptied for the next span.
func (c *Cluster) fields() telemetry.Fields {
	if c.spanFields == nil {
		c.spanFields = make(telemetry.Fields)
	}
	clear(c.spanFields)
	return c.spanFields
}

// deliver finalizes one invocation: cancels its deadline, records metrics,
// ends its span and invokes the caller's callback. Then the record goes back
// to the free list, unless a warm-wait event still refers to it.
func (c *Cluster) deliver(p *pendingInvocation, res InvocationResult, ct *container) {
	p.settled = true
	if p.timeoutEv != nil {
		p.timeoutEv.Cancel()
		p.timeoutEv = nil
	}
	c.metrics.record(res)
	// Work that reached a container feeds the hosting invoker's circuit
	// breaker; shed/queued work never touched an invoker and does not.
	if ct != nil {
		c.noteInvokerOutcome(ct.invoker, res.Outcome != OutcomeSuccess)
	}
	if p.span != 0 {
		coldF := 0.0
		if res.ColdStart {
			coldF = 1
		}
		f := c.fields()
		f["cold"] = coldF
		f["wait_s"] = res.WaitTime
		f["exec_s"] = res.ExecTime
		f["cpu"] = res.CPU
		f["mem_mb"] = res.MemoryMB
		f["outcome"] = float64(res.Outcome)
		f["attempt"] = float64(res.Attempt)
		if ct != nil {
			f["container"] = float64(ct.id)
			f["invoker"] = float64(ct.invoker.ID)
		}
		c.tracer.EndSpan(p.span, c.eng.Now(), f)
	}
	if p.done != nil {
		p.done(res)
	}
	if !p.warming {
		c.releasePending(p)
	}
}

// timeoutPending fires when an invocation's deadline expires before it
// completed: queued work is dropped, a reserved warm-up is released, and a
// running container is killed (wedged executions do not come back).
func (c *Cluster) timeoutPending(fn *function, p *pendingInvocation) {
	if p.settled {
		return
	}
	ct := p.ct
	if ct == nil {
		// Still queued: drop it from the queue.
		for i, q := range fn.queue {
			if q == p {
				fn.queue = append(fn.queue[:i], fn.queue[i+1:]...)
				c.queued--
				break
			}
		}
		c.failPending(fn, p, OutcomeTimedOut, "timeout", nil)
		return
	}
	switch {
	case ct.state == stateBusy && ct.running == p:
		c.abortRun(ct, p, OutcomeTimedOut, "timeout")
	default:
		// Reserved on a container still warming (or already lost): give
		// up the reservation; runOn sees the settled flag and returns a
		// healthy container to the idle pool.
		fn.inFlight--
		c.failPending(fn, p, OutcomeTimedOut, "timeout", nil)
		c.drainAllQueues()
	}
}

// warmedAhead reports whether the container finished initializing before
// now (i.e., it was sitting warm when the invocation arrived).
func warmedAhead(ct *container, now float64) bool {
	return ct.warmAt <= now && ct.state != stateWarming
}

// drainQueue dispatches queued invocations while capacity allows. Work that
// cannot be placed re-enters at the queue's front (FIFO preserved), which
// also ends the pass: dispatch just proved there is no capacity.
func (c *Cluster) drainQueue(fn *function) {
	for len(fn.queue) > 0 {
		limit := fn.cfg.Concurrency
		if limit > 0 && fn.inFlight >= limit {
			return
		}
		if len(fn.idle) == 0 && len(fn.warming) == 0 {
			// Try to create capacity; if impossible, stay queued.
			if c.pickInvoker(fn.cfg.MemoryMB) == nil && !c.hasIdleAnywhere() {
				return
			}
		}
		p := fn.queue[0]
		fn.queue = fn.queue[1:]
		c.queued--
		if !c.dispatch(fn, p, true) {
			return
		}
	}
}

func (c *Cluster) hasIdleAnywhere() bool {
	for _, fn := range c.fnList {
		if len(fn.idle) > 0 {
			return true
		}
	}
	return false
}

// armIdleTimer schedules keep-alive termination for an idle container.
// Pre-warm-pool-managed functions (prewarmTarget > 0) skip the timer; the
// pool scheduler owns their lifecycle.
func (c *Cluster) armIdleTimer(ct *container) {
	if ct.idleTimer != nil {
		ct.idleTimer.Cancel()
		ct.idleTimer = nil
	}
	fn := ct.fn
	if fn.prewarmTarget > 0 {
		// Terminate only if above target.
		alive := len(fn.idle) + len(fn.warming) + fn.busyN
		if alive > fn.prewarmTarget && ct.state == stateIdle {
			c.killContainer(ct)
		}
		return
	}
	if fn.keepAlive <= 0 {
		c.killContainer(ct)
		return
	}
	// Expire at lastUsed + keepAlive so that re-arming (e.g. after a
	// keep-alive policy update) never extends a container's life.
	deadline := ct.lastUsed + fn.keepAlive
	delay := deadline - c.eng.Now()
	if delay <= 0 {
		c.killContainer(ct)
		return
	}
	if ct.idleExpire == nil {
		ct.idleExpire = func() {
			if ct.state == stateIdle {
				c.killContainer(ct)
			}
		}
	}
	ct.idleTimer = c.eng.After(delay, ct.idleExpire)
}

// SetFaultRates installs the probabilistic fault knobs (driven by
// internal/chaos during fault windows). Zero rates cost no RNG draws, so a
// run that never enables them is byte-identical to one before the fault
// model existed.
func (c *Cluster) SetFaultRates(f FaultRates) { c.faults = f }

// SetStraggler applies a multiplicative execution slowdown to one invoker
// (chaos straggler episodes). Factor <= 1 clears it.
func (c *Cluster) SetStraggler(invoker int, factor float64) {
	if invoker < 0 || invoker >= len(c.invokers) {
		return
	}
	if factor < 1 {
		factor = 1
	}
	c.invokers[invoker].straggle = factor
}

// OnInvokerDown registers a callback fired synchronously after an invoker
// finishes crashing (all containers torn down, in-flight work failed). The
// pool manager uses it to re-warm lost capacity on surviving invokers.
func (c *Cluster) OnInvokerDown(f func(invoker int)) {
	c.onInvokerDown = append(c.onInvokerDown, f)
}

// CrashInvoker takes a worker server down: every resident container dies
// and in-flight invocations on it fail with OutcomeFailed. The controller
// routes around the invoker until RecoverInvoker brings it back.
func (c *Cluster) CrashInvoker(invoker int) {
	if invoker < 0 || invoker >= len(c.invokers) {
		return
	}
	iv := c.invokers[invoker]
	if iv.down {
		return
	}
	iv.down = true
	c.metrics.invokerCrashed()
	cts := c.residents(iv)
	// Hold queue draining until the whole invoker is torn down, so failed
	// work retried inline cannot land on a container about to die. Pass 1
	// removes idle/warming capacity; pass 2 fails the running work.
	wasDraining := c.draining
	c.draining = true
	for _, ct := range cts {
		if ct.state != stateBusy {
			c.faultKillContainer(ct, "invoker-crash")
		}
	}
	for _, ct := range cts {
		if ct.state == stateBusy && ct.running != nil {
			c.abortRun(ct, ct.running, OutcomeFailed, "invoker-crash")
		}
	}
	c.draining = wasDraining
	c.accrueUtil(iv)
	iv.cpuBusy = 0
	for _, f := range c.onInvokerDown {
		f(invoker)
	}
	c.drainAllQueues()
}

// RecoverInvoker brings a crashed worker back online, empty; queued work
// can immediately spawn containers on it.
func (c *Cluster) RecoverInvoker(invoker int) {
	if invoker < 0 || invoker >= len(c.invokers) {
		return
	}
	iv := c.invokers[invoker]
	if !iv.down {
		return
	}
	iv.down = false
	if c.cfg.Breaker.Enabled && iv.breaker.state != breakerClosed {
		// A recovered invoker starts with a clean slate: the pre-crash
		// error window says nothing about the fresh instance.
		iv.breaker.reset()
		c.breakerEvent(iv, breakerClosed, 0)
	}
	c.drainAllQueues()
}

// faultKillContainer terminates a container because of a fault: waiters
// reserved on it fail instead of silently re-dispatching.
func (c *Cluster) faultKillContainer(ct *container, reason string) {
	if ct.state == stateDead {
		return
	}
	ct.faultKilled = true
	ct.faultReason = reason
	if reason == "init-failure" {
		c.metrics.initFailure()
	}
	c.killContainer(ct)
}

// killContainer releases a container's resources and accounts its
// memory-time.
func (c *Cluster) killContainer(ct *container) {
	if ct.state == stateDead {
		return
	}
	fn := ct.fn
	switch ct.state {
	case stateIdle:
		for i, w := range fn.idle {
			if w == ct {
				fn.idle = append(fn.idle[:i], fn.idle[i+1:]...)
				break
			}
		}
	case stateWarming:
		for i, w := range fn.warming {
			if w == ct {
				fn.warming = append(fn.warming[:i], fn.warming[i+1:]...)
				break
			}
		}
	}
	if ct.idleTimer != nil {
		ct.idleTimer.Cancel()
		ct.idleTimer = nil
	}
	c.accrueUtil(ct.invoker)
	ct.setState(stateDead)
	delete(ct.invoker.containers, ct)
	ct.invoker.memUsedMB -= ct.cfg.MemoryMB
	ct.invoker.util.killed++
	c.metrics.containerDied(ct.cfg.MemoryMB, c.eng.Now()-ct.born)
	if c.tracer.Enabled() {
		faultF := 0.0
		if ct.faultKilled {
			faultF = 1
		}
		f := c.fields()
		f["container"] = float64(ct.id)
		f["invoker"] = float64(ct.invoker.ID)
		f["mem_mb"] = ct.cfg.MemoryMB
		f["lifetime_s"] = c.eng.Now() - ct.born
		f["fault"] = faultF
		c.tracer.Point(telemetry.KindContainerKill, fn.spec.Name, 0, c.eng.Now(), f)
	}
	// Freed capacity may unblock queued work.
	c.drainAllQueues()
}

// drainAllQueues re-dispatches queued invocations across all functions. It
// is reentrancy-guarded: dispatching can evict containers, whose death
// hooks call back here.
func (c *Cluster) drainAllQueues() {
	if c.draining || c.queued == 0 {
		return
	}
	c.draining = true
	for _, fn := range c.fnList {
		if len(fn.queue) > 0 {
			c.drainQueue(fn)
		}
	}
	c.draining = false
}

// Flush finalizes metrics for containers still alive (call at the end of a
// simulation before reading memory-time).
func (c *Cluster) Flush() {
	now := c.eng.Now()
	c.flushUtilization(now)
	for _, iv := range c.invokers {
		// Sorted before accounting: iterating the map directly would sum
		// mem-time in random order and perturb the last ULP across
		// same-seed runs.
		for _, ct := range c.residents(iv) {
			if ct.state != stateDead {
				c.metrics.containerDied(ct.cfg.MemoryMB, now-ct.born)
				ct.setState(stateDead)
			}
		}
		clear(iv.containers)
		iv.memUsedMB = 0
	}
	for _, fn := range c.fnList {
		fn.idle, fn.warming = nil, nil
	}
}

// AliveMemoryMB returns the memory currently held by live containers.
func (c *Cluster) AliveMemoryMB() float64 {
	var s float64
	for _, iv := range c.invokers {
		s += iv.memUsedMB
	}
	return s
}
