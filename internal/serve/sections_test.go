package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/chaos"
	"aquatope/internal/checkpoint"
	"aquatope/internal/faas"
	"aquatope/internal/sched"
	"aquatope/internal/telemetry"
	"aquatope/internal/workflow"
)

// sectionsOpts is the overload-armed serving fixture whose checkpoint
// sections the golden pins at a 30-minute horizon: the BNN pool under the
// kill-restore script, deadline-aware bounded queues, breakers, the pool
// guard, and retries with a shared budget — every overload layer at its
// production constants.
func sectionsOpts(t *testing.T, dir string, minutes int) Options {
	t.Helper()
	app := apps.NewChain(2)
	scn, ok := chaos.Builtin("kill-restore", float64(minutes)*60, 7)
	if !ok {
		t.Fatal("kill-restore scenario missing")
	}
	// Containers killed mid-execution through the surge open the breakers.
	scn.Faults = append(scn.Faults, chaos.Fault{Kind: chaos.KindFaultRates, At: 720, Duration: 540,
		Rates: faas.FaultRates{ExecKill: 0.6}})
	// A model small enough to train on the 12-minute prefix.
	brain, ok := sched.New("aquatope", sched.Options{
		EncoderHidden: 6, PredHidden: []int{6, 4}, EncoderEpochs: 2, PredEpochs: 4,
		MCSamples: 3, Window: 6, HeadroomZ: 2,
	})
	if !ok {
		t.Fatal("scheduler aquatope not registered")
	}
	pol := workflow.DefaultRetryPolicy()
	pol.Timeout = app.QoS
	pol.RetryBudget = 2
	pol.RetryBudgetPerSec = 0.05
	return Options{
		Apps:         []*apps.App{app},
		TrainMin:     12,
		HorizonMin:   minutes,
		Scheduler:    brain,
		SearchBudget: 3,
		ProfileNoise: faas.Noise{GaussianStd: 0.15, OutlierRate: 0.02, OutlierScale: 3},
		RuntimeNoise: faas.Noise{GaussianStd: 0.1, OutlierRate: 0.01, OutlierScale: 3},
		ClusterCfg: faas.Config{
			Invokers: 2, CPUPerInvoker: 2, MemoryPerInvokerMB: 2048,
			QueueLimit: 4, Admission: faas.AdmitDeadlineAware,
			Breaker: faas.BreakerConfig{Enabled: true},
		},
		Chaos:         scn,
		Resilience:    &pol,
		PoolGuard:     true,
		Tracer:        telemetry.NewCollector(),
		Registry:      telemetry.NewRegistry(),
		CheckpointDir: dir,
		Seed:          7,
	}
}

// TestCheckpointSectionsGolden pins the SHA-256 every section of every
// boundary checkpoint an uninterrupted overload-armed serving run cuts
// stores: the digest of that component's snapshot. The
// header is left out: it carries Options.Digest, whose text is free to
// change when an option's spelling does. Everything else is a function of
// the run, so a refactor of the platform path must leave these hashes
// alone. Regenerate with UPDATE_GOLDEN=1 go test ./internal/serve/.
func TestCheckpointSectionsGolden(t *testing.T) {
	dir := t.TempDir()
	opts := sectionsOpts(t, dir, 30)
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(sourceOf(t, fixtureStream(t, 30, 11))); err != nil {
		t.Fatal(err)
	}
	// The fixture must reach the layers it is meant to pin: a trained model's
	// headroom, a guard trip, breaker transitions, retries, budget denials
	// and admission sheds.
	counts := map[string]int{}
	for _, sp := range opts.Tracer.Spans() {
		switch {
		case sp.Kind == telemetry.KindPoolDecision && sp.Fields["headroom"] > 0:
			counts["headroom"]++
		case sp.Kind == telemetry.KindPoolMode:
			counts["pool.mode"]++
		case sp.Kind == telemetry.KindBreaker:
			counts["breaker"]++
		case sp.Kind == telemetry.KindRetry && sp.Fields["denied"] == 1:
			counts["denied"]++
		case sp.Kind == telemetry.KindRetry:
			counts["retry"]++
		case sp.Kind == telemetry.KindInvocation && sp.Fields["outcome"] == float64(faas.OutcomeShed):
			counts["shed"]++
		}
	}
	for _, what := range []string{"headroom", "pool.mode", "breaker", "retry", "denied", "shed"} {
		if counts[what] == 0 {
			t.Errorf("the fixture never reached %s (reached %v)", what, counts)
		}
	}

	names, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.aqcp"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, path := range names {
		f, err := checkpoint.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range f.Sections {
			fmt.Fprintf(&b, "%s %s %x\n", filepath.Base(path), sec.Name, sec.Data)
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "sections.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("checkpoint sections drifted from the golden; first difference at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("checkpoint sections drifted from the golden: %d lines, want %d", len(gl), len(wl))
	}
}
