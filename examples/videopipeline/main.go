// Video pipeline example: the Sprocket-style framework of the paper's
// Fig. 7 — decode, scene-change detection, per-chunk face recognition /
// box drawing / watermarking fan-out, final encode — demonstrating the
// dynamic pre-warmed container pool on a bursty upload pattern and the
// cascading cold starts it prevents.
//
// Run with:
//
//	go run ./examples/videopipeline
package main

import (
	"fmt"
	"log"

	"aquatope/internal/apps"
	"aquatope/internal/core"
	"aquatope/internal/sched"
	"aquatope/internal/trace"
)

// poolOnly drops a scheduler's configuration half: every function keeps
// its default configuration and no search runs, so the two replays differ
// in the pre-warm pool alone.
type poolOnly struct{ sched.Scheduler }

func (poolOnly) Configurator() sched.Configurator { return nil }

// replay runs the video workflow over the trace under the named registry
// scheduler's pool; the first day trains the pool models and metrics cover
// the rest.
func replay(app *apps.App, tr *trace.Trace, system string, o sched.Options) (coldRate, memGBs, meanLat float64) {
	brain, ok := sched.New(system, o)
	if !ok {
		log.Fatalf("scheduler %s is not registered", system)
	}
	res, err := core.Run(core.Config{
		Components: []core.Component{{App: app, Trace: tr}},
		TrainMin:   1440,
		Scheduler:  poolOnly{brain},
		Seed:       1, // one replay seed, so both pools see the identical workload
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.ColdStartRate(), res.ProvisionedMemGBs, res.PerApp[app.Name].MeanLatency
}

func main() {
	app := apps.NewVideoProcessing()
	fmt.Printf("video pipeline: %d stages (chunk fan-out 2-8), QoS %.1fs\n",
		len(app.DAG.Stages()), app.QoS)

	// Upload bursts: videos arrive in episodes (e.g. after events).
	tr := trace.Synthesize(trace.GenConfig{
		DurationMin:          2160,
		MeanRatePerMin:       0.3,
		Diurnal:              0.6,
		CV:                   2,
		BurstEpisodesPerHour: 1,
		BurstDurationMin:     12,
		BurstMultiplier:      8,
		Seed:                 3,
	})
	fmt.Printf("trace: %d uploads over %d min\n\n", len(tr.Arrivals), tr.DurationMin)

	keepCold, keepMem, keepLat := replay(app, tr, "keepalive", sched.Options{})
	fmt.Printf("fixed keep-alive:  cold=%5.1f%%  provisioned=%7.0f GB-s  latency=%.2fs\n",
		keepCold*100, keepMem, keepLat)

	// Fewer training epochs than the registry default keep the demo quick.
	aquaCold, aquaMem, aquaLat := replay(app, tr, "aquatope", sched.Options{EncoderEpochs: 6, PredEpochs: 18})
	fmt.Printf("aquatope pool:     cold=%5.1f%%  provisioned=%7.0f GB-s  latency=%.2fs\n",
		aquaCold*100, aquaMem, aquaLat)

	// With six dependent stages one missed container cascades into
	// multi-stage cold starts (§2.2), so the cold-start rate is the number to
	// read first; the verdict is the measured one, whichever way it goes.
	fmt.Printf("\nagainst fixed keep-alive the predictive pool's cold-start rate is %s,\n", than(aquaCold, keepCold))
	fmt.Printf("its provisioned memory %s and its mean latency %s.\n", than(aquaMem, keepMem), than(aquaLat, keepLat))
}

// than says how a compares with b.
func than(a, b float64) string {
	switch {
	case a < b:
		return "lower"
	case a > b:
		return "higher"
	}
	return "the same"
}
