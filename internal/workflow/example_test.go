package workflow_test

import (
	"fmt"

	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/stats"
	"aquatope/internal/workflow"
)

type constModel struct{ exec float64 }

func (m constModel) InitTime(faas.ResourceConfig, *stats.RNG) float64 { return 0 }
func (m constModel) ExecTime(_ faas.ResourceConfig, _ bool, in float64, _ *stats.RNG) float64 {
	return m.exec * in
}

// ExampleExecutor_Execute builds a fan-out workflow and runs one request
// end to end on the simulated platform.
func ExampleExecutor_Execute() {
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{Seed: 1})
	for _, fn := range []string{"split", "work", "merge"} {
		_ = cl.RegisterFunction(
			faas.FunctionSpec{Name: fn, Model: constModel{exec: 1}},
			faas.ResourceConfig{CPU: 1, MemoryMB: 128},
		)
	}
	dag := workflow.FanOutFanIn("demo", "split", []string{"work"}, "merge")

	ex := workflow.NewExecutor(cl)
	var res workflow.Result
	_ = ex.Execute(dag, 1, map[string]int{"branch0": 4}, func(r workflow.Result) { res = r })
	eng.Run()

	fmt.Printf("invocations: %d\n", res.Invocations)
	fmt.Printf("parallel latency below serial: %v\n", res.Latency() < 6)
	// Output:
	// invocations: 6
	// parallel latency below serial: true
}
