package serve

import (
	"math"
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/sched"
	"aquatope/internal/telemetry"
)

// TestCheckpointCutAllocBudget pins what one boundary's checkpoint cut
// allocates: the server's encoder, the engine's sorted copy of its queue,
// the cluster's sorted copy of each invoker's containers and the registry's
// render buffer are kept between boundaries, so once they have grown a cut
// allocates the same fixed count whether 1 000 or 10 000 events are
// pending, and no more than the budget.
func TestCheckpointCutAllocBudget(t *testing.T) {
	cutAllocs := func(pending int) float64 {
		keepalive, ok := sched.New("keepalive", sched.Options{})
		if !ok {
			t.Fatal("scheduler keepalive not registered")
		}
		s, err := New(Options{
			Apps:          []*apps.App{apps.NewChain(2)},
			TrainMin:      1,
			HorizonMin:    10,
			Scheduler:     keepalive,
			Tracer:        telemetry.NewCollector(),
			Registry:      telemetry.NewRegistry(),
			CheckpointDir: t.TempDir(),
			Seed:          1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(sourceOf(t, fixtureStream(t, 10, 7))); err != nil {
			t.Fatal(err)
		}
		eng := s.Engine()
		for i := 0; i < pending; i++ {
			eng.Schedule(eng.Now()+float64(1+i), func() {})
		}
		// The fewest of a few single-cut counts: under the race detector
		// sync.Pool drops objects at random, and encoding/json (the
		// registry section) then makes its encoder state afresh.
		fewest := math.Inf(1)
		for range 10 {
			fewest = min(fewest, testing.AllocsPerRun(1, func() { s.assemble(false) }))
		}
		return fewest
	}
	const budget = 223
	small, large := cutAllocs(1_000), cutAllocs(10_000)
	t.Logf("cut allocs: %v at 1k, %v at 10k pending", small, large)
	if small != large {
		t.Fatalf("a cut allocates %v with 1 000 events pending and %v with 10 000, want the same count", small, large)
	}
	if small > budget {
		t.Fatalf("a cut allocates %v, budget %d", small, budget)
	}
}
