// Package workflow models multi-stage serverless applications as DAGs of
// function stages and executes them on the faas simulator: stages run when
// all their dependencies complete, fan-out stages invoke many parallel
// function instances, and the end-to-end latency and cost of the whole
// request are accounted per execution — including cascading cold starts
// across dependent stages (§2.2).
package workflow

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
)

// Stage is one node of a workflow DAG.
type Stage struct {
	// Name identifies the stage within the DAG.
	Name string
	// Function is the faas function the stage invokes.
	Function string
	// Deps lists stage names that must complete first.
	Deps []string
	// Width is the number of parallel invocations the stage issues
	// (fan-out); 0 or 1 means a single invocation.
	Width int
	// InputScale multiplies the workflow's input size for this stage
	// (e.g. a decoder emits fixed-size chunks).
	InputScale float64
}

func (s Stage) width() int {
	if s.Width <= 0 {
		return 1
	}
	return s.Width
}

func (s Stage) inputScale() float64 {
	if s.InputScale == 0 {
		return 1
	}
	return s.InputScale
}

// DAG is a validated workflow graph.
type DAG struct {
	Name   string
	stages []Stage
	index  map[string]int
	// children[i] lists indices of stages depending on stage i.
	children [][]int
	order    []int // topological order
	// sortedNames is every stage name in sorted order: the stage order
	// Result's cost sums run in.
	sortedNames []string
}

// NewDAG validates the stages (unique names, existing dependencies,
// acyclicity) and returns the workflow.
func NewDAG(name string, stages []Stage) (*DAG, error) {
	d := &DAG{Name: name, stages: stages, index: make(map[string]int)}
	for i, s := range stages {
		if s.Name == "" {
			return nil, fmt.Errorf("workflow: stage %d has empty name", i)
		}
		if _, dup := d.index[s.Name]; dup {
			return nil, fmt.Errorf("workflow: duplicate stage %q", s.Name)
		}
		d.index[s.Name] = i
	}
	d.children = make([][]int, len(stages))
	indeg := make([]int, len(stages))
	for i, s := range stages {
		for _, dep := range s.Deps {
			j, ok := d.index[dep]
			if !ok {
				return nil, fmt.Errorf("workflow: stage %q depends on unknown %q", s.Name, dep)
			}
			d.children[j] = append(d.children[j], i)
			indeg[i]++
		}
	}
	// Kahn's algorithm for topological order / cycle detection. Every
	// stage enters the queue exactly once, so len(stages) is an exact cap.
	queue := make([]int, 0, len(stages))
	for i, deg := range indeg {
		if deg == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		d.order = append(d.order, i)
		for _, ch := range d.children[i] {
			indeg[ch]--
			if indeg[ch] == 0 {
				queue = append(queue, ch)
			}
		}
	}
	if len(d.order) != len(stages) {
		return nil, fmt.Errorf("workflow: %q has a dependency cycle", name)
	}
	d.sortedNames = make([]string, len(stages))
	for i, s := range stages {
		d.sortedNames[i] = s.Name
	}
	sort.Strings(d.sortedNames)
	return d, nil
}

// Stages returns the DAG's stages.
func (d *DAG) Stages() []Stage { return append([]Stage(nil), d.stages...) }

// Chain builds a linear workflow f1 -> f2 -> ... over the given functions.
func Chain(name string, functions ...string) *DAG {
	stages := make([]Stage, len(functions))
	for i, fn := range functions {
		stages[i] = Stage{Name: "s" + strconv.Itoa(i), Function: fn}
		if i > 0 {
			stages[i].Deps = []string{"s" + strconv.Itoa(i-1)}
		}
	}
	d, err := NewDAG(name, stages)
	if err != nil {
		panic(err) // unreachable: construction is well-formed
	}
	return d
}

// FanOutFanIn builds source -> {branches...} -> sink.
func FanOutFanIn(name, source string, branches []string, sink string) *DAG {
	stages := make([]Stage, 0, len(branches)+2)
	stages = append(stages, Stage{Name: "source", Function: source})
	branchNames := make([]string, 0, len(branches))
	for i, fn := range branches {
		bn := "branch" + strconv.Itoa(i)
		branchNames = append(branchNames, bn)
		stages = append(stages, Stage{Name: bn, Function: fn, Deps: []string{"source"}})
	}
	stages = append(stages, Stage{Name: "sink", Function: sink, Deps: branchNames})
	d, err := NewDAG(name, stages)
	if err != nil {
		panic(err)
	}
	return d
}

// RetryPolicy is the workflow resilience layer: per-attempt timeouts,
// capped exponential backoff with deterministic jitter, and an optional
// hedged duplicate request. A nil policy on the Executor preserves the
// original fire-once semantics.
type RetryPolicy struct {
	// MaxAttempts bounds the total attempts per logical invocation,
	// including the first and any hedge (values < 1 behave as 1).
	MaxAttempts int
	// Timeout is the per-attempt deadline in seconds (0 = none).
	Timeout float64
	// HedgeDelay, when positive, issues one duplicate of a still-pending
	// first attempt after this many seconds (tail-latency hedging). The
	// first terminal success wins; the hedge counts against MaxAttempts.
	HedgeDelay float64
	// RetryBudget, when positive, is a token bucket shared by every stage
	// call of one workflow execution: each retry or hedge spends a token,
	// and when the bucket is empty the call fails fast instead of
	// re-issuing — under saturation the resilience layer stops amplifying
	// load. Zero preserves unbudgeted (legacy) retries.
	RetryBudget int
	// RetryBudgetPerSec refills the bucket while the workflow runs
	// (capped at RetryBudget); zero means no refill.
	RetryBudgetPerSec float64
	// HedgeQueueLimit, when positive, is the backpressure bound on
	// hedging: a hedge is skipped when the target function's queue depth
	// is at or above it (a saturated queue makes a duplicate request pure
	// extra load). Zero hedges unconditionally.
	HedgeQueueLimit int
}

// The retry backoff: retry k (0-based) waits backoffInitial·backoffFactor^k
// seconds, capped at backoffMax, spread uniformly by ±backoffJitter of
// itself with draws from the executor's seeded RNG, so same-seed runs
// schedule identical retries.
const (
	backoffInitial = 0.5
	backoffFactor  = 2
	backoffMax     = 8
	backoffJitter  = 0.2
)

// DefaultRetryPolicy returns a conservative production-style policy: three
// attempts, no per-attempt timeout and no hedging (enable per workload).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3}
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the nominal delay before retry number k (0-based).
func backoff(k int) float64 {
	return math.Min(backoffInitial*math.Pow(backoffFactor, float64(k)), backoffMax)
}

// Result reports one end-to-end workflow execution. The Result an Executor
// hands to its done callback, and the PerStage slices in it, are valid only
// until done returns: the executor then reuses the request's storage for
// the next one, and clears PerStage when it does, so a caller that kept the
// Result sees an empty map rather than another request's results. Read or
// copy what you need inside the callback.
type Result struct {
	Workflow   string
	SubmitTime float64
	EndTime    float64
	// PerStage holds the terminal invocation result of every stage
	// instance (the settling attempt: the winner under retries/hedging).
	// On a Result handed to done it is the executor's, reused after done.
	PerStage map[string][]faas.InvocationResult
	// ColdStarts counts cold-started invocations across stages.
	ColdStarts int
	// Invocations counts total function invocations.
	Invocations int
	// Failed reports that some stage instance exhausted its attempts:
	// downstream stages were skipped and the workflow's output is lost.
	Failed bool
	// FailedInvocations counts stage instances that terminally failed.
	FailedInvocations int
	// Retries counts re-issued attempts; Hedges counts hedged duplicates.
	Retries int
	Hedges  int
	// SkippedStages counts stages short-circuited after a failure.
	SkippedStages int
	// Sheds counts attempts rejected by platform admission control
	// (OutcomeShed); ShedStages counts stage instances whose settling
	// result was a shed — the signal QoS attribution uses to separate
	// overload rejections from hard faults.
	Sheds      int
	ShedStages int
	// RetriesDenied counts retries suppressed by an exhausted retry
	// budget; HedgesSkipped counts hedges suppressed by the budget or by
	// queue-depth backpressure.
	RetriesDenied int
	HedgesSkipped int

	// sorted is the executed DAG's sortedNames (a superset of PerStage's
	// keys); nil on a hand-built Result, which sorts its own keys.
	sorted []string
}

// sortedStages returns stage names in sorted order, covering every key of
// PerStage.
func (r Result) sortedStages() []string {
	if r.sorted != nil {
		return r.sorted
	}
	return r.StageNames()
}

// Latency returns the end-to-end latency.
func (r Result) Latency() float64 { return r.EndTime - r.SubmitTime }

// CPUTime returns total CPU-seconds across all stage invocations. Stages
// are summed in sorted-name order so the float result is identical across
// same-seed runs (map iteration order would perturb the last ULP).
func (r Result) CPUTime() float64 {
	var s float64
	for _, name := range r.sortedStages() {
		for _, ir := range r.PerStage[name] {
			s += ir.CostCPUTime()
		}
	}
	return s
}

// MemTime returns total GB-seconds across all stage invocations, in the
// same deterministic stage order as CPUTime.
func (r Result) MemTime() float64 {
	var s float64
	for _, name := range r.sortedStages() {
		for _, ir := range r.PerStage[name] {
			s += ir.CostMemTime()
		}
	}
	return s
}

// Cost returns the linear execution cost κc·CPUTime + κm·MemTime used by
// the resource manager (§5.1); provider-style weights default to 1 each.
func (r Result) Cost(cpuWeight, memWeight float64) float64 {
	return cpuWeight*r.CPUTime() + memWeight*r.MemTime()
}

// Executor runs workflow DAGs on a cluster.
type Executor struct {
	Cluster *faas.Cluster
	// Policy enables the resilience layer (nil = fire-once, no timeout).
	Policy *RetryPolicy
	// Seed drives the deterministic retry jitter stream.
	Seed int64

	rng *stats.RNG
	// free holds quiescent executions for reuse, last released first. A
	// record keeps its stage table, result and call arrays, PerStage map and
	// bound callbacks, so a warm request allocates none of them. It is a
	// plain slice, not a sync.Pool, so which record serves which request is
	// a function of the event sequence alone.
	free []*execution
	// spanFields is the one Fields map the executor fills for every stage,
	// workflow and retry span it emits (fields hands it out emptied): the
	// collector copies what it is handed.
	spanFields telemetry.Fields
}

// NewExecutor returns an executor bound to a cluster.
func NewExecutor(c *faas.Cluster) *Executor { return &Executor{Cluster: c} }

// fields returns the executor's span-field map, emptied for the next span.
func (e *Executor) fields() telemetry.Fields {
	if e.spanFields == nil {
		e.spanFields = make(telemetry.Fields)
	}
	clear(e.spanFields)
	return e.spanFields
}

// jitter returns a multiplicative backoff jitter factor in
// [1-backoffJitter, 1+backoffJitter].
func (e *Executor) jitter() float64 {
	if e.rng == nil {
		e.rng = stats.NewRNG(e.Seed)
	}
	return 1 + backoffJitter*(2*e.rng.Float64()-1)
}

// execution is one workflow request in flight: the DAG walk, the per-stage
// bookkeeping and the retry budget that all of its stage calls share.
type execution struct {
	e   *Executor
	d   *DAG
	tr  *telemetry.Collector
	pol *RetryPolicy // the executor's policy at submission (nil = fire-once)
	// maxAttempts and timeout are pol's, or 1 and none without a policy.
	maxAttempts int
	timeout     float64
	inputSize   float64
	done        func(Result)
	res         Result
	span        telemetry.SpanID
	stages      []stageRun
	// results backs every stage's result window; perStage is the Result's
	// PerStage map. Both outlive the request, as do stages and calls.
	results  []faas.InvocationResult
	perStage map[string][]faas.InvocationResult
	// calls has one slot per stage instance, handed out in launch order.
	calls      []call
	nextCall   int
	stagesLeft int
	finished   bool
	// depth counts the execution's frames on the stack: Execute and the
	// callbacks the cluster and engine fire, which nest when an attempt
	// settles synchronously. Only the outermost frame releases the record,
	// so no frame of it runs on after a later request has taken it over.
	depth int
	// tokens is the retry budget, one bucket for the whole execution, last
	// refilled at tokensAt; tokens < 0 means unbudgeted (legacy behaviour).
	tokens, tokensAt float64
}

// stageRun is one stage's progress within an execution.
type stageRun struct {
	span    telemetry.SpanID
	deps    int // dependencies still unfinished
	width   int // instances the stage issues (per-request override applied)
	pending int // instances still unsettled while the stage runs
	// results collects the settling result of every instance, in settling
	// order; it is a width-capped window of the execution's one result array.
	results []faas.InvocationResult
}

// call is one logical stage instance under the resilience policy:
// per-attempt timeout, capped exponential backoff retries with
// deterministic jitter, and an optional hedged duplicate. Exactly one
// terminal result settles the call; late hedge losers are dropped.
type call struct {
	x           *execution
	stage       int
	settled     bool
	issued      int // attempts issued or committed (incl. scheduled)
	outstanding int // attempts in flight or scheduled
	retries     int
	hedgeEv     *sim.Event
	// done, fireRetry and fireHedge are onTerminal, retry and hedge, bound
	// once per slot so neither re-issuing nor arming a timer allocates a
	// callback.
	done                 func(faas.InvocationResult)
	fireRetry, fireHedge func()
}

// Execute submits one workflow request with the given input size. Width
// overrides (may be nil) replace stage widths per request — e.g. a social
// post fanning out to each follower. done receives the completed Result,
// which is valid only until done returns (see Result): once the request is
// quiescent — no attempt outstanding, no hedge timer armed — its storage
// serves a later Execute.
func (e *Executor) Execute(d *DAG, inputSize float64, widths map[string]int, done func(Result)) error {
	// Validate functions exist before launching anything.
	for i := range d.stages {
		if fn := d.stages[i].Function; !e.Cluster.HasFunction(fn) {
			return fmt.Errorf("workflow: function %q not registered", fn)
		}
	}
	n := len(d.stages)
	now := e.Cluster.Engine().Now()
	x := e.acquire()
	x.d, x.tr, x.pol, x.maxAttempts, x.timeout = d, e.Cluster.Tracer(), e.Policy, 1, 0
	x.inputSize, x.done = inputSize, done
	x.res = Result{Workflow: d.Name, SubmitTime: now, sorted: d.sortedNames}
	x.stages = resize(x.stages, n)
	x.nextCall, x.stagesLeft, x.finished = 0, n, false
	x.tokens, x.tokensAt = -1, now
	if pol := x.pol; pol != nil {
		x.maxAttempts, x.timeout = pol.maxAttempts(), pol.Timeout
		if pol.RetryBudget > 0 {
			x.tokens = float64(pol.RetryBudget)
		}
	}
	// Every width is known now, so one array holds all stage results and
	// one holds all call states.
	total := 0
	for i := range d.stages {
		st := &d.stages[i]
		w := st.width()
		if ov, ok := widths[st.Name]; ok && ov > 0 {
			w = ov
		}
		x.stages[i] = stageRun{deps: len(st.Deps), width: w}
		total += w
	}
	x.results = resize(x.results, total)
	x.calls = resize(x.calls, total)
	off := 0
	for i := range x.stages {
		w := x.stages[i].width
		x.stages[i].results = x.results[off : off : off+w]
		off += w
	}
	x.span = x.tr.StartSpan(telemetry.KindWorkflow, d.Name, 0, now)
	x.depth++
	for i := range d.stages {
		if len(d.stages[i].Deps) == 0 {
			x.launch(i)
		}
	}
	x.exit()
	return nil
}

// resize returns s with length n, reusing its array when it is big enough.
// Callers overwrite every element they read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// acquire takes the last released execution off the free list, or makes
// one.
func (e *Executor) acquire() *execution {
	n := len(e.free)
	if n == 0 {
		return &execution{e: e}
	}
	x := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	return x
}

// exit closes one of the execution's frames. The outermost frame of a
// quiescent execution — finished, so every call settled and no hedge timer
// is armed, and no attempt outstanding, hedge losers and scheduled retries
// included — clears PerStage and returns the record to the free list.
func (x *execution) exit() {
	x.depth--
	if x.depth > 0 || !x.finished {
		return
	}
	for i := range x.calls[:x.nextCall] {
		if x.calls[i].outstanding > 0 {
			return
		}
	}
	clear(x.perStage)
	x.done = nil
	x.e.free = append(x.e.free, x)
}

func (x *execution) now() float64 { return x.e.Cluster.Engine().Now() }

// takeBudget spends one retry token, refilling the bucket first.
func (x *execution) takeBudget() bool {
	if x.tokens < 0 {
		return true
	}
	now := x.now()
	if refill := x.pol.RetryBudgetPerSec; refill > 0 {
		x.tokens = math.Min(float64(x.pol.RetryBudget), x.tokens+(now-x.tokensAt)*refill)
	}
	x.tokensAt = now
	if x.tokens >= 1 {
		x.tokens--
		return true
	}
	return false
}

func (x *execution) launch(i int) {
	tr := x.tr
	s := &x.stages[i]
	s.span = tr.StartSpan(telemetry.KindStage, x.d.stages[i].Name, x.span, x.now())
	if x.res.Failed {
		// Fail-fast: an upstream stage exhausted its attempts, so
		// this stage's inputs are lost. Skip it (and, transitively,
		// the rest of the DAG) instead of burning resources.
		x.res.SkippedStages++
		if s.span != 0 {
			f := x.e.fields()
			f["invocations"] = 0
			f["skipped"] = 1
			tr.EndSpan(s.span, x.now(), f)
			s.span = 0
		}
		x.finishStage(i)
		return
	}
	s.pending = s.width
	for k := 0; k < s.width; k++ {
		c := &x.calls[x.nextCall]
		x.nextCall++
		if c.x == nil {
			c.x = x
			c.done, c.fireRetry, c.fireHedge = c.onTerminal, c.retry, c.hedge
		}
		c.stage, c.settled, c.issued, c.outstanding, c.retries = i, false, 0, 0, 0
		c.run()
	}
}

func (x *execution) finishStage(i int) {
	tr := x.tr
	x.stagesLeft--
	if s := &x.stages[i]; s.span != 0 {
		f := x.e.fields()
		f["invocations"] = float64(len(s.results))
		tr.EndSpan(s.span, x.now(), f)
	}
	for _, ch := range x.d.children[i] {
		x.stages[ch].deps--
		if x.stages[ch].deps == 0 {
			x.launch(ch)
		}
	}
	// The finished guard matters under fail-fast: skipping a child
	// stage re-enters finishStage synchronously, so after the recursion
	// unwinds the parent frame can observe stagesLeft == 0 again.
	if x.stagesLeft == 0 && !x.finished {
		x.finished = true
		x.res.EndTime = x.now()
		if x.perStage == nil {
			x.perStage = make(map[string][]faas.InvocationResult, len(x.stages))
		}
		for j := range x.stages {
			if rs := x.stages[j].results; len(rs) > 0 {
				x.perStage[x.d.stages[j].Name] = rs
			}
		}
		x.res.PerStage = x.perStage
		if x.span != 0 {
			f := x.e.fields()
			f["invocations"] = float64(x.res.Invocations)
			f["cold_starts"] = float64(x.res.ColdStarts)
			tr.EndSpan(x.span, x.res.EndTime, f)
		}
		if x.done != nil {
			x.done(x.res)
		}
	}
}

// settleCall records the terminal result of one logical stage instance
// (the winning attempt under retries/hedging) and advances the stage.
func (x *execution) settleCall(i int, r faas.InvocationResult) {
	s := &x.stages[i]
	s.results = append(s.results, r)
	x.res.Invocations++
	if r.ColdStart {
		x.res.ColdStarts++
	}
	if !r.OK() {
		x.res.Failed = true
		x.res.FailedInvocations++
		if r.Outcome == faas.OutcomeShed {
			x.res.ShedStages++
		}
	}
	s.pending--
	if s.pending == 0 {
		x.finishStage(i)
	}
}

// run issues the call's first attempt and arms its hedge.
func (c *call) run() {
	c.issue()
	// A shed (or budget-denied) first attempt can settle the call
	// synchronously inside issue(); arming a hedge then would leak it.
	if pol := c.x.pol; pol != nil && pol.HedgeDelay > 0 && c.x.maxAttempts > 1 && !c.settled {
		c.hedgeEv = c.x.e.Cluster.Engine().After(pol.HedgeDelay, c.fireHedge)
	}
}

func (c *call) issue() {
	x := c.x
	st := &x.d.stages[c.stage]
	attempt := c.issued
	c.issued++
	c.outstanding++
	err := x.e.Cluster.InvokeOpts(st.Function, faas.InvokeOptions{
		InputSize: x.inputSize * st.inputScale(),
		Parent:    x.stages[c.stage].span,
		Timeout:   x.timeout,
		Attempt:   attempt,
	}, c.done)
	if err != nil {
		panic(fmt.Sprintf("workflow: invoke %s: %v", st.Function, err))
	}
}

func (c *call) settle(r faas.InvocationResult) {
	c.settled = true
	if c.hedgeEv != nil {
		c.hedgeEv.Cancel()
		c.hedgeEv = nil
	}
	c.x.settleCall(c.stage, r)
}

// retryFields returns the executor's span-field map holding the keys every
// invocation.retry point carries.
func (c *call) retryFields(outcome, hedge float64) telemetry.Fields {
	f := c.x.e.fields()
	f["attempt"] = float64(c.issued)
	f["outcome"] = outcome
	f["hedge"] = hedge
	return f
}

// retryPoint emits one invocation.retry point for the call's stage.
func (c *call) retryPoint(f telemetry.Fields) {
	x := c.x
	x.tr.Point(telemetry.KindRetry, x.d.stages[c.stage].Function,
		x.stages[c.stage].span, x.now(), f)
}

func (c *call) onTerminal(r faas.InvocationResult) {
	x := c.x
	x.depth++
	defer x.exit()
	c.outstanding--
	if r.Outcome == faas.OutcomeShed {
		x.res.Sheds++
	}
	if c.settled {
		return // hedge loser / late completion
	}
	if r.OK() {
		c.settle(r)
		return
	}
	if c.issued < x.maxAttempts {
		tr := x.tr
		if x.takeBudget() {
			// Schedule a retry with capped exponential backoff.
			k := c.retries
			c.retries++
			x.res.Retries++
			delay := backoff(k) * x.e.jitter()
			if tr.Enabled() {
				f := c.retryFields(float64(r.Outcome), 0)
				f["backoff_s"] = delay
				c.retryPoint(f)
			}
			c.issued++ // commit the slot before the timer fires
			c.outstanding++
			x.e.Cluster.Engine().After(delay, c.fireRetry)
			return
		}
		// Budget exhausted: degrade to fail-fast instead of
		// amplifying an already-saturated platform.
		x.res.RetriesDenied++
		if tr.Enabled() {
			f := c.retryFields(float64(r.Outcome), 0)
			f["denied"] = 1
			c.retryPoint(f)
		}
	}
	if c.outstanding == 0 {
		// Every attempt exhausted; the last failure settles.
		c.settle(r)
	}
}

// retry is the backoff timer: it turns the committed slot into an attempt.
func (c *call) retry() {
	c.x.depth++
	defer c.x.exit()
	c.outstanding--
	if c.settled {
		return
	}
	c.issued--
	c.issue()
}

// hedge is the hedge timer: it issues one duplicate of a still-pending
// first attempt unless backpressure or the retry budget says no.
func (c *call) hedge() {
	x, tr := c.x, c.x.tr
	x.depth++
	defer x.exit()
	c.hedgeEv = nil
	if c.settled || c.issued >= x.maxAttempts || c.outstanding == 0 {
		return
	}
	if lim := x.pol.HedgeQueueLimit; lim > 0 {
		if depth := x.e.Cluster.QueueDepth(x.d.stages[c.stage].Function); depth >= lim {
			// Backpressure: the target queue is saturated, so a
			// duplicate request is pure extra load.
			x.res.HedgesSkipped++
			if tr.Enabled() {
				f := c.retryFields(0, 1)
				f["denied"] = 1
				f["queue_depth"] = float64(depth)
				c.retryPoint(f)
			}
			return
		}
	}
	if !x.takeBudget() {
		x.res.HedgesSkipped++
		if tr.Enabled() {
			f := c.retryFields(0, 1)
			f["denied"] = 1
			c.retryPoint(f)
		}
		return
	}
	x.res.Hedges++
	if tr.Enabled() {
		f := c.retryFields(0, 1)
		f["backoff_s"] = 0
		c.retryPoint(f)
	}
	c.issue()
}

// StageNames returns sorted stage names of a result (stable for reports).
func (r Result) StageNames() []string {
	names := make([]string, 0, len(r.PerStage))
	for k := range r.PerStage {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
