package main

// runConfig is everything a workload derives its inputs from. The seed
// enters here from -seed and reaches every generator through it; the
// program under test only ever receives the generated inputs.
type runConfig struct {
	Seed int64
	// ProgramSeed is the program's own RNG seed; see programSeed.
	ProgramSeed int64
	Scale       string // scaleFull or scaleTiny
	// TmpDir is a scratch directory inside the output directory for
	// streams, journals and checkpoints; the run removes it when it ends.
	TmpDir string
}

// programSeed is the program's own RNG seed (core.Config.Seed,
// serve.Options.Seed): part of its configuration, like the scheduler name.
// The benchmark's -seed generates the inputs — arrival times, request
// streams, the social graph — and the program receives only those. Letting
// -seed also reseed the brains would make every seed a different
// experiment: a 60-sample BO search lands on configurations whose cost
// differs by a third from seed to seed, which no bound could tell from a
// regression. This value is one at which the search meets QoS on all five
// apps.
const programSeed = 3

const (
	scaleFull = "full"
	scaleTiny = "tiny"
)

func (c runConfig) tiny() bool { return c.Scale == scaleTiny }

// simStats are a rep's simulated outcomes over the test window. They are
// exact for a fixed seed, so a brain that gets faster by deciding worse
// shows here.
type simStats struct {
	Workflows   int     `json:"workflows"`
	Violations  int     `json:"qos_violations"`
	Failed      int     `json:"failed_workflows"`
	ColdStarts  int     `json:"cold_starts"`
	Invocations int     `json:"invocations"`
	CPUCoreS    float64 `json:"cpu_core_s"`
	ProvMemGBs  float64 `json:"provisioned_mem_gb_s"`
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func (s simStats) qosMetPct() float64    { return 100 - pct(s.Violations, s.Workflows) }
func (s simStats) warmStartPct() float64 { return 100 - pct(s.ColdStarts, s.Invocations) }
func (s simStats) goodputPct() float64   { return pct(s.Workflows-s.Failed, s.Workflows) }

// costPerWf is the arena formula: CPU core-seconds consumed plus
// provisioned memory GB-seconds at 4 GB per core, per settled workflow.
func (s simStats) costPerWf() float64 {
	if s.Workflows == 0 {
		return 0
	}
	return (s.CPUCoreS + s.ProvMemGBs/4) / float64(s.Workflows)
}

// repOut is what one repetition of a workload reports.
type repOut struct {
	// region is the timed part of the rep: wall_s and the allocation
	// counters come from it.
	region
	// ops is the workload's unit of work done inside the timed region.
	ops float64
	// counts are exact work counts (arrivals, events, decisions, samples,
	// …) recorded beside the timings.
	counts map[string]float64
	sim    simStats
	// digest is the SHA-256 of the rep's output dumps; every rep of a run
	// must reproduce the warm-up rep's.
	digest string
	checks []check
	// restoreS and ckptBytes are serve-restore's two own metrics: the
	// rep's individual restore times and the bytes its reference run left
	// on disk.
	restoreS  []float64
	ckptBytes float64
}

// workload is one of the benchmark's input sets, built for a seed.
type workload struct {
	name string
	// op names the unit ops_per_s counts.
	op string
	// generate builds every input from the seed: traces, streams, apps.
	// It is pure set-up, repeated to measure setup_s.
	generate func() error
	// prepare does the untimed once-per-run work and returns its checks
	// (nil when the workload has none).
	prepare func(rec *recorder) []check
	// rep runs one repetition. rec is nil except in the traced rep.
	rep func(rec *recorder) (repOut, error)
	// layers reports the per-layer metrics only this workload can
	// measure, during the traced pass (nil when it has none). base is the
	// median untraced rep's wall.
	layers func(rec *recorder, baseWallS float64) (map[string]float64, []check)
}
