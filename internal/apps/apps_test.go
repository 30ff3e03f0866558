package apps

import (
	"maps"
	"testing"

	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/socialgraph"
	"aquatope/internal/stats"
	"aquatope/internal/workflow"
)

func deploy(t *testing.T, a *App) (*sim.Engine, *faas.Cluster, *workflow.Executor) {
	t.Helper()
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{Invokers: 4, CPUPerInvoker: 40, MemoryPerInvokerMB: 1 << 20, Seed: 1})
	if err := a.Register(cl); err != nil {
		t.Fatal(err)
	}
	return eng, cl, workflow.NewExecutor(cl)
}

// runOnce executes one request of a and returns its Result, with PerStage
// copied inside the callback: the executor reuses its own after done.
func runOnce(t *testing.T, a *App, seed int64) workflow.Result {
	t.Helper()
	eng, _, ex := deploy(t, a)
	rng := stats.NewRNG(seed)
	var res *workflow.Result
	keep := func(r workflow.Result) {
		per := make(map[string][]faas.InvocationResult, len(r.PerStage))
		for name, rs := range r.PerStage {
			per[name] = append([]faas.InvocationResult(nil), rs...)
		}
		r.PerStage = per
		res = &r
	}
	if err := ex.Execute(a.DAG, a.Input(rng), a.Widths(rng), keep); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if res == nil {
		t.Fatalf("%s never completed", a.Name)
	}
	return *res
}

func TestAllAppsExecuteEndToEnd(t *testing.T) {
	for _, a := range All(1) {
		res := runOnce(t, a, 2)
		if res.Invocations == 0 {
			t.Fatalf("%s made no invocations", a.Name)
		}
		if res.Latency() <= 0 {
			t.Fatalf("%s latency = %v", a.Name, res.Latency())
		}
		if res.CPUTime() <= 0 || res.MemTime() <= 0 {
			t.Fatalf("%s cost empty", a.Name)
		}
	}
}

func TestChainStageCount(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		a := NewChain(n)
		if len(a.DAG.Stages()) != n {
			t.Fatalf("chain %d has %d stages", n, len(a.DAG.Stages()))
		}
		if len(a.Specs) != n {
			t.Fatalf("chain %d has %d specs", n, len(a.Specs))
		}
	}
	if len(NewChain(0).Specs) != 1 {
		t.Fatal("chain clamps to 1 stage")
	}
}

func TestMLPipelineParallelRecognition(t *testing.T) {
	a := NewMLPipeline()
	res := runOnce(t, a, 3)
	// vehicle and human run in parallel after objdetect: e2e latency must
	// be below the serial sum of all four stages.
	var serial float64
	for _, rs := range res.PerStage {
		for _, r := range rs {
			serial += r.Latency()
		}
	}
	if res.Latency() >= serial {
		t.Fatalf("ML pipeline not parallel: e2e %v vs serial %v", res.Latency(), serial)
	}
	if len(res.PerStage) != 4 {
		t.Fatalf("stages executed = %d", len(res.PerStage))
	}
}

func TestVideoWidthsVary(t *testing.T) {
	a := NewVideoProcessing()
	rng := stats.NewRNG(4)
	seen := make(map[int]bool)
	for i := 0; i < 30; i++ {
		w := a.Widths(rng)["face"]
		if w < 2 || w > 8 {
			t.Fatalf("chunk width %d out of range", w)
		}
		seen[w] = true
	}
	if len(seen) < 3 {
		t.Fatal("widths should vary across requests")
	}
}

func TestSocialNetworkFanoutFollowsGraph(t *testing.T) {
	g := socialgraph.Reed98Like(5)
	a := NewSocialNetwork(g)
	rng := stats.NewRNG(6)
	maxW := 0
	for i := 0; i < 200; i++ {
		w := a.Widths(rng)["hometimeline"]
		if w < 1 {
			t.Fatalf("width %d < 1", w)
		}
		if w > maxW {
			maxW = w
		}
	}
	// Hubs have hundreds of followers → widths well above 1.
	if maxW < 3 {
		t.Fatalf("max width %d; heavy-tail fanout not visible", maxW)
	}
	// Nil graph falls back to a default.
	if NewSocialNetwork(nil) == nil {
		t.Fatal("nil graph should be tolerated")
	}
}

func TestRegisterMissingDefaultFails(t *testing.T) {
	a := NewChain(2)
	delete(a.Defaults, a.Specs[0].Name)
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{Seed: 1})
	if err := a.Register(cl); err == nil {
		t.Fatal("expected missing-default error")
	}
}

func TestInputDefaultsToOne(t *testing.T) {
	a := NewChain(1)
	if a.Input(stats.NewRNG(1)) != 1 {
		t.Fatal("nil InputFn should return 1")
	}
	if a.Widths(stats.NewRNG(1)) != nil {
		t.Fatal("nil WidthFn should return nil")
	}
}

func TestFunctionNames(t *testing.T) {
	a := NewFanOutFanIn()
	names := a.FunctionNames()
	if len(names) != 5 || names[0] != "fan-src" || names[4] != "fan-sink" {
		t.Fatalf("names = %v", names)
	}
}

func TestQoSAchievableWhenWellProvisioned(t *testing.T) {
	// With generous resources and warm containers, every app should meet
	// its QoS (the constraint is "latency before saturation").
	for _, a := range All(7) {
		eng, cl, ex := deploy(t, a)
		// Upgrade all functions and pre-warm generously.
		for _, fn := range a.FunctionNames() {
			cl.SetResourceConfig(fn, faas.ResourceConfig{CPU: 4, MemoryMB: 4096})
			cl.SetPrewarmTarget(fn, 16)
		}
		eng.RunUntil(60) // let pre-warming finish
		rng := stats.NewRNG(8)
		var res *workflow.Result
		ex.Execute(a.DAG, a.Input(rng), a.Widths(rng), func(r workflow.Result) { res = &r })
		eng.Run()
		if res == nil {
			t.Fatalf("%s did not complete", a.Name)
		}
		if res.Latency() > a.QoS {
			t.Fatalf("%s warm latency %v exceeds QoS %v", a.Name, res.Latency(), a.QoS)
		}
	}
}

// TestWidthsAllocBudget: drawing a request's width overrides allocates
// nothing for any app, and the shared maps hold exactly what the per-request
// formulas gave, after exactly the same RNG draws.
func TestWidthsAllocBudget(t *testing.T) {
	graph := socialgraph.Reed98Like(1)
	formula := map[string]func(rng *stats.RNG) map[string]int{
		"videoproc": func(rng *stats.RNG) map[string]int {
			w := 2 + rng.Intn(7)
			return map[string]int{"face": w, "drawbox": w, "watermark": w}
		},
		"socialnet": func(rng *stats.RNG) map[string]int {
			w := graph.Followers(graph.SampleUser(rng))/32 + 1
			return map[string]int{"hometimeline": w}
		},
	}
	for _, a := range All(1) {
		rng := stats.NewRNG(1)
		if got := testing.AllocsPerRun(100, func() { a.Widths(rng) }); got != 0 {
			t.Errorf("%s: Widths allocates %v, want 0", a.Name, got)
		}
		want := formula[a.Name]
		if want == nil {
			if a.WidthFn != nil {
				t.Errorf("%s: unexpected WidthFn", a.Name)
			}
			continue
		}
		for seed := int64(0); seed < 200; seed++ {
			got, ref := stats.NewRNG(seed), stats.NewRNG(seed)
			for i := 0; i < 20; i++ {
				if g, w := a.Widths(got), want(ref); !maps.Equal(g, w) {
					t.Fatalf("%s seed %d draw %d: widths %v, want %v", a.Name, seed, i, g, w)
				}
			}
			if got.Int63() != ref.Int63() {
				t.Fatalf("%s seed %d: the RNG streams diverged", a.Name, seed)
			}
		}
	}
}
