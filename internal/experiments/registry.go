package experiments

// Result is the structured surface every experiment harness returns.
type Result interface {
	// Rows returns a flat mechanical view of the result — one header and
	// one row per measurement cell — so regenerated numbers can be diffed
	// programmatically instead of scraped from Table output.
	Rows() (header []string, rows [][]string)
}

// Table renders a result's human-readable table(s), matching the layout of
// the paper figure its harness reproduces: the aligned rows, unless the
// result lays its figure out differently (Fig. 11–13 and 16) and says so
// with a Table method of its own.
func Table(r Result) string {
	if t, ok := r.(interface{ Table() string }); ok {
		return t.Table()
	}
	return formatTable(r.Rows())
}

// Experiment is one evaluation harness of the lineup. Run must be
// deterministic in the Scale's seed: called twice with the same Scale it
// produces identical results regardless of Scale.Parallel.
type Experiment struct {
	// ID is the stable identifier used by aquabench -exp.
	ID string
	// Title is the one-line human description (paper table/figure).
	Title string
	// Run executes the harness at the given scale.
	Run func(Scale) Result
}

// run adapts a harness returning its own result type to Experiment.Run.
func run[R Result](harness func(Scale) R) func(Scale) Result {
	return func(s Scale) Result { return harness(s) }
}

// lineup is every experiment, in the order the paper's evaluation (§8)
// presents them; cmd/aquabench iterates it.
var lineup = []Experiment{
	{"table1", "Table 1: prediction accuracy (SMAPE)", run(Table1)},
	{"fig9", "Fig 9: cold starts and provisioned memory per pool policy", run(Fig9)},
	{"fig10", "Fig 10: cold starts vs workload CV (IceBreaker vs Aquatope)", run(Fig10)},
	{"fig11", "Fig 11: pool memory over time (Aquatope vs AquaLite)", run(Fig11)},
	{"fig12", "Fig 12: cost vs search budget per workflow and manager", run(Fig12)},
	{"fig13", "Fig 13: final CPU/memory time vs Oracle", run(Fig13)},
	{"fig14a", "Fig 14a: cost vs chain length (CLITE vs Aquatope)", run(Fig14a)},
	{"fig14b", "Fig 14b: cost vs execution-time variability", run(Fig14b)},
	{"fig15", "Fig 15: robustness to irregular cloud noise", run(Fig15)},
	{"fig16", "Fig 16: adaptation to workload behaviour changes", run(Fig16)},
	{"fig17", "Fig 17: resource manager with vs without the pre-warm pool", run(Fig17)},
	{"fig18", "Fig 18: end-to-end comparison of full frameworks", run(Fig18)},
	{"ablation-batch", "Ablation: BO batch size q (cost vs rounds)", run(AblationBatchSize)},
	{"ablation-headroom", "Ablation: pool uncertainty headroom z (cold vs memory)", run(AblationHeadroom)},
	{"ablation-mc", "Ablation: MC-dropout passes T", run(AblationMCSamples)},
	{"chaos", "Chaos: fault rate × retry policy resilience sweep", run(Chaos)},
	{"overload", "Overload: arrival-rate sweep through saturation (admission, breakers, budgets)", run(Overload)},
	{"arena", "Arena: scheduler head-to-head (aquatope vs jolteon/caerus/naive) across steady, chaos and overload workloads", run(Arena)},
}

// Get returns the lineup's experiment with the given id.
func Get(id string) (Experiment, bool) {
	for _, e := range lineup {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns every experiment in lineup order.
func All() []Experiment { return append([]Experiment(nil), lineup...) }

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
	return ResultJSON{ID: e.ID, Title: e.Title, Header: header, Rows: rows, Data: r}
}
