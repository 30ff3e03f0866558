// Quickstart: define a three-stage serverless workflow, drive it with a
// bursty synthetic trace, and let Aquatope manage both its pre-warmed
// container pool and its per-function resource configuration.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"aquatope/internal/apps"
	"aquatope/internal/core"
	"aquatope/internal/faas"
	"aquatope/internal/sched"
	"aquatope/internal/trace"
)

func main() {
	// 1. A multi-stage serverless application: three chained functions
	//    with alternating CPU- and memory-bound profiles, and an
	//    end-to-end latency QoS.
	app := apps.NewChain(3)
	fmt.Printf("app %q: %d stages, QoS %.2fs\n", app.Name, len(app.DAG.Stages()), app.QoS)

	// 2. A day and a half of invocations: diurnal seasonality, bursts.
	tr := trace.Synthesize(trace.GenConfig{
		DurationMin:          2160,
		MeanRatePerMin:       0.8,
		Diurnal:              0.6,
		CV:                   2,
		BurstEpisodesPerHour: 1,
		Seed:                 42,
	})
	fmt.Printf("trace: %d invocations, inter-arrival CV %.2f\n",
		len(tr.Arrivals), tr.InterArrivalCV())

	// 3. Aquatope end to end: the resource manager profiles candidate
	//    configurations with noisy-EI Bayesian optimization, then the
	//    hybrid-Bayesian pool pre-warms containers ahead of load. The
	//    first day trains the models; metrics cover the rest.
	//    Both halves come from the scheduler registry (the names
	//    `aquatope -system` takes); fewer training epochs keep this quick.
	brain, ok := sched.New("aquatope", sched.Options{EncoderEpochs: 6, PredEpochs: 18})
	if !ok {
		log.Fatal("scheduler aquatope is not registered")
	}
	res, err := core.Run(core.Config{
		Components:   []core.Component{{App: app, Trace: tr}},
		TrainMin:     1440,
		Scheduler:    brain,
		SearchBudget: 24,
		ProfileNoise: faas.Noise{GaussianStd: 0.1},
		RuntimeNoise: faas.Noise{GaussianStd: 0.1},
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}

	ar := res.PerApp[app.Name]
	fmt.Printf("\n-- results over the test day --\n")
	fmt.Printf("workflows:        %d\n", ar.Workflows)
	fmt.Printf("QoS violations:   %.1f%%\n", ar.ViolationRate()*100)
	fmt.Printf("cold starts:      %.1f%%\n", res.ColdStartRate()*100)
	fmt.Printf("mean latency:     %.2fs (QoS %.2fs)\n", ar.MeanLatency, app.QoS)
	fmt.Printf("CPU time:         %.1f core-s\n", ar.CPUTime)
	fmt.Printf("memory time:      %.1f GB-s\n", ar.MemTime)
	fmt.Println("\nchosen per-function configuration:")
	for _, fn := range app.FunctionNames() {
		c := ar.ChosenConfig[fn]
		fmt.Printf("  %-10s cpu=%.2g cores  mem=%.0f MB\n", fn, c.CPU, c.MemoryMB)
	}
}
