package sched

import (
	"fmt"
	"math"

	"aquatope/internal/faas"
	"aquatope/internal/pool"
	"aquatope/internal/resource"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
)

// keepAlive is the provider-default pool policy the static schedulers
// share: no pre-warm target, a fixed 10-minute idle lifetime.
func keepAlive() pool.Policy { return &pool.FixedKeepAlive{} }

// ---------------------------------------------------------------------------

// caerusManager is the Caerus/Orion composite static baseline.
//
// CPU (the parallelism analog on this platform — stages have no separate
// fan-out knob, compute share is the degree-of-parallelism lever) is fixed
// up front the Caerus way: proportional to each stage's estimated work,
// measured by sampling the stage's perf model at a reference configuration
// before any profiling. The heaviest stage gets the top CPU option and the
// rest scale down linearly by work share.
//
// Memory is then searched the Orion way: breadth-first best-fit over the
// per-stage memory grid, starting from the all-minimum assignment and
// expanding one stage by one grain per candidate; the first assignment
// whose profiled latency meets the QoS bound wins. If the budget runs out
// first, the lowest-latency assignment seen stands in.
type caerusManager struct {
	space *resource.Space
	prof  *resource.Profiler
	qos   float64
	seed  int64

	cpus    []float64 // per-function CPU fixed by work share
	queue   [][]int   // BFS frontier of per-function memory-level vectors
	visited map[string]bool
	iter    int
	done    bool

	best  map[string]faas.ResourceConfig
	bestC float64
	haveB bool
	// fallback: lowest-latency candidate seen, used when nothing met QoS
	fbCfg map[string]faas.ResourceConfig
	fbC   float64
	fbLat float64
}

func newCaerusManager(space *resource.Space, prof *resource.Profiler, qos float64, seed int64) resource.Manager {
	return &caerusManager{space: space, prof: prof, qos: qos, seed: seed}
}

// Name implements resource.Manager.
func (m *caerusManager) Name() string { return "caerus" }

// workRefDraws is how many perf-model draws estimate one stage's work.
const workRefDraws = 5

// initShares fixes per-function CPU by relative work share and seeds the
// BFS frontier at the all-minimum memory assignment.
func (m *caerusManager) initShares() {
	rng := stats.NewRNG(m.seed)
	ref := faas.ResourceConfig{
		CPU:      1,
		MemoryMB: m.space.MemOptions[len(m.space.MemOptions)-1],
	}
	work := make([]float64, len(m.space.Functions))
	maxW := 0.0
	for i, fn := range m.space.Functions {
		spec, ok := specFor(m.prof.App.Specs, fn)
		if !ok {
			work[i] = 1
		} else {
			draws := make([]float64, workRefDraws)
			for j := range draws {
				draws[j] = spec.Model.ExecTime(ref, false, 1, rng)
			}
			work[i] = stats.Mean(draws)
		}
		if work[i] > maxW {
			maxW = work[i]
		}
	}
	m.cpus = make([]float64, len(work))
	top := len(m.space.CPUOptions) - 1
	for i, w := range work {
		share := 1.0
		if maxW > 0 {
			share = w / maxW
		}
		m.cpus[i] = m.space.CPUOptions[int(math.Round(share*float64(top)))]
	}
	start := make([]int, len(m.space.Functions))
	m.queue = [][]int{start}
	m.visited = map[string]bool{levelKey(start): true}
}

func specFor(specs []faas.FunctionSpec, fn string) (faas.FunctionSpec, bool) {
	for _, s := range specs {
		if s.Name == fn {
			return s, true
		}
	}
	return faas.FunctionSpec{}, false
}

func levelKey(levels []int) string {
	return fmt.Sprint(levels)
}

// configAt materializes per-function configs for a memory-level vector.
func (m *caerusManager) configAt(levels []int) map[string]faas.ResourceConfig {
	cfgs := make(map[string]faas.ResourceConfig, len(m.space.Functions))
	for i, fn := range m.space.Functions {
		cfgs[fn] = faas.ResourceConfig{CPU: m.cpus[i], MemoryMB: m.space.MemOptions[levels[i]]}
	}
	return cfgs
}

// Step implements resource.Manager: one BFS candidate per call.
func (m *caerusManager) Step() int {
	if m.done {
		return 0
	}
	if m.cpus == nil {
		m.initShares()
	}
	if len(m.queue) == 0 {
		m.done = true
		return 0
	}
	levels := m.queue[0]
	m.queue = m.queue[1:]
	cfgs := m.configAt(levels)
	cost, lat := m.prof.Sample(cfgs)
	satisfied := lat <= m.qos
	if satisfied {
		// Best-fit: the first (i.e. smallest-footprint, by BFS order)
		// satisfying assignment wins outright.
		m.best, m.bestC, m.haveB = cfgs, cost, true
		m.done = true
	} else {
		if m.fbCfg == nil || lat < m.fbLat {
			m.fbCfg, m.fbC, m.fbLat = cfgs, cost, lat
		}
		for i := range levels {
			if levels[i]+1 >= len(m.space.MemOptions) {
				continue
			}
			next := append([]int(nil), levels...)
			next[i]++
			k := levelKey(next)
			if !m.visited[k] {
				m.visited[k] = true
				m.queue = append(m.queue, next)
			}
		}
	}
	if m.prof.Tracer.Enabled() {
		sum := 0
		for _, l := range levels {
			sum += l
		}
		f := telemetry.Fields{
			"iter":       float64(m.iter),
			"cost":       cost,
			"lat":        lat,
			"qos":        m.qos,
			"mem_levels": float64(sum),
			"frontier":   float64(len(m.queue)),
		}
		if satisfied {
			f["satisfied"] = 1
		}
		m.prof.Tracer.Point(telemetry.KindSchedDecision, "caerus", 0, float64(m.iter), f)
	}
	m.iter++
	return 1
}

// Best implements resource.Manager: the first QoS-satisfying assignment,
// else the lowest-latency candidate profiled.
func (m *caerusManager) Best() (map[string]faas.ResourceConfig, float64, bool) {
	if m.haveB {
		return m.best, m.bestC, true
	}
	if m.fbCfg != nil {
		return m.fbCfg, m.fbC, true
	}
	return nil, 0, false
}
