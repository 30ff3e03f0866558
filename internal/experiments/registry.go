package experiments

import (
	"fmt"
	"sync"
)

// Result is the structured surface every experiment harness returns.
type Result interface {
	// Table renders the human-readable table(s), matching the layout of
	// the paper figure the harness reproduces.
	Table() string
	// Rows returns a flat mechanical view of the result — one header and
	// one row per measurement cell — so regenerated numbers can be diffed
	// programmatically instead of scraped from Table output.
	Rows() (header []string, rows [][]string)
}

// Experiment is one registered evaluation harness. Implementations must be
// deterministic in the Scale's seed: Run called twice with the same Scale
// must produce identical results regardless of Scale.Parallel.
type Experiment interface {
	// ID is the stable identifier used by aquabench -exp.
	ID() string
	// Title is the one-line human description (paper table/figure).
	Title() string
	// Run executes the harness at the given scale.
	Run(Scale) Result
}

// funcExperiment adapts a plain function into an Experiment.
type funcExperiment struct {
	id, title string
	run       func(Scale) Result
}

func (e funcExperiment) ID() string         { return e.id }
func (e funcExperiment) Title() string      { return e.title }
func (e funcExperiment) Run(s Scale) Result { return e.run(s) }

// New wraps a harness function as a registrable Experiment.
func New(id, title string, run func(Scale) Result) Experiment {
	return funcExperiment{id: id, title: title, run: run}
}

var (
	regMu   sync.Mutex
	regular []Experiment
	regByID = make(map[string]Experiment)
)

// Register adds an experiment to the package registry. It panics on an
// empty or duplicate id — registration is an init-time programming contract,
// not a runtime condition.
func Register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	id := e.ID()
	if id == "" {
		panic("experiments: Register with empty id")
	}
	if _, dup := regByID[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate experiment id %q", id))
	}
	regByID[id] = e
	regular = append(regular, e)
}

// Get returns the experiment registered under id.
func Get(id string) (Experiment, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	e, ok := regByID[id]
	return e, ok
}

// All returns every registered experiment in registration order — for the
// built-ins, the order the paper's §8 presents them in.
func All() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	return append([]Experiment(nil), regular...)
}

// ResultJSON is the mechanical export of one experiment result: the flat
// header/rows view for diffing plus the full structured result under Data.
type ResultJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Data   Result     `json:"data"`
}

// MarshalResult shapes an experiment result for JSON export.
func MarshalResult(e Experiment, r Result) ResultJSON {
	header, rows := r.Rows()
	return ResultJSON{ID: e.ID(), Title: e.Title(), Header: header, Rows: rows, Data: r}
}

// The built-in lineup, registered in the order the paper's evaluation
// presents it. cmd/aquabench iterates this registry; it no longer keeps its
// own id → runner → title maps that could drift apart.
func init() {
	Register(New("table1", "Table 1: prediction accuracy (SMAPE)",
		func(s Scale) Result { return Table1(s) }))
	Register(New("fig9", "Fig 9: cold starts and provisioned memory per pool policy",
		func(s Scale) Result { return Fig9(s) }))
	Register(New("fig10", "Fig 10: cold starts vs workload CV (IceBreaker vs Aquatope)",
		func(s Scale) Result { return Fig10(s) }))
	Register(New("fig11", "Fig 11: pool memory over time (Aquatope vs AquaLite)",
		func(s Scale) Result { return Fig11(s) }))
	Register(New("fig12", "Fig 12: cost vs search budget per workflow and manager",
		func(s Scale) Result { return Fig12(s) }))
	Register(New("fig13", "Fig 13: final CPU/memory time vs Oracle",
		func(s Scale) Result { return Fig13(s) }))
	Register(New("fig14a", "Fig 14a: cost vs chain length (CLITE vs Aquatope)",
		func(s Scale) Result { return Fig14a(s) }))
	Register(New("fig14b", "Fig 14b: cost vs execution-time variability",
		func(s Scale) Result { return Fig14b(s) }))
	Register(New("fig15", "Fig 15: robustness to irregular cloud noise",
		func(s Scale) Result { return Fig15(s) }))
	Register(New("fig16", "Fig 16: adaptation to workload behaviour changes",
		func(s Scale) Result { return Fig16(s) }))
	Register(New("fig17", "Fig 17: resource manager with vs without the pre-warm pool",
		func(s Scale) Result { return Fig17(s) }))
	Register(New("fig18", "Fig 18: end-to-end comparison of full frameworks",
		func(s Scale) Result { return Fig18(s) }))
	Register(New("ablation-batch", "Ablation: BO batch size q (cost vs rounds)",
		func(s Scale) Result { return AblationBatchSize(s) }))
	Register(New("ablation-headroom", "Ablation: pool uncertainty headroom z (cold vs memory)",
		func(s Scale) Result { return AblationHeadroom(s) }))
	Register(New("ablation-mc", "Ablation: MC-dropout passes T",
		func(s Scale) Result { return AblationMCSamples(s) }))
	Register(New("chaos", "Chaos: fault rate × retry policy resilience sweep",
		func(s Scale) Result { return Chaos(s) }))
	Register(New("overload", "Overload: arrival-rate sweep through saturation (admission, breakers, budgets)",
		func(s Scale) Result { return Overload(s) }))
	Register(New("arena", "Arena: scheduler head-to-head (aquatope vs jolteon/caerus/naive) across steady, chaos and overload workloads",
		func(s Scale) Result { return Arena(s) }))
}
