package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/chaos"
	"aquatope/internal/checkpoint"
	"aquatope/internal/faas"
	"aquatope/internal/sched"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

// horizonRun serves a chain3 stream of the given length with tracer and
// checkpoints on — the benchmark's serve-restore configuration (scheduler
// caerus, 120 arrivals/min, kill-restore script left inert) — and returns
// the number of boundaries it crossed.
func horizonRun(tb testing.TB, minutes int, dir string) int {
	tb.Helper()
	app := apps.NewChain(3)
	tr := trace.Synthesize(trace.GenConfig{DurationMin: minutes, MeanRatePerMin: 120, Diurnal: 0.4, CV: 1.5, Seed: 16})
	var stream bytes.Buffer
	if err := WriteStream(&stream, app.Name, tr.Arrivals); err != nil {
		tb.Fatal(err)
	}
	scn, ok := chaos.Builtin("kill-restore", float64(minutes)*60, 1)
	if !ok {
		tb.Fatal("kill-restore scenario missing")
	}
	scheduler, ok := sched.New("caerus", sched.Options{})
	if !ok {
		tb.Fatal("scheduler caerus missing")
	}
	pol := workflow.DefaultRetryPolicy()
	s, err := New(Options{
		Apps:          []*apps.App{app},
		TrainMin:      4,
		HorizonMin:    minutes,
		Scheduler:     scheduler,
		RuntimeNoise:  faas.Noise{GaussianStd: 0.1, OutlierRate: 0.01, OutlierScale: 3},
		ProfileNoise:  faas.Noise{GaussianStd: 0.15, OutlierRate: 0.02, OutlierScale: 3},
		Chaos:         scn,
		Resilience:    &pol,
		Tracer:        telemetry.NewCollector(),
		Registry:      telemetry.NewRegistry(),
		CheckpointDir: dir,
		Seed:          1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Run(NewSource(&stream)); err != nil {
		tb.Fatal(err)
	}
	return s.Boundary()
}

// TestCheckpointFlatInHorizon pins the point of storing histories as
// positions: doubling the horizon must not grow a boundary file. Before
// format v2 the last file quadrupled with every doubling.
func TestCheckpointFlatInHorizon(t *testing.T) {
	const h = 22
	last := func(minutes int) *checkpoint.File {
		dir := t.TempDir()
		k := horizonRun(t, minutes, dir)
		f, err := checkpoint.ReadFile(filepath.Join(dir, checkpointName(k)))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	short, long := last(h), last(2*h)
	if a, b := len(short.Encode()), len(long.Encode()); float64(b) >= 1.25*float64(a) {
		t.Errorf("last boundary file grew from %d B at %d min to %d B at %d min (want < 1.25x)", a, h, b, 2*h)
	}
	spans, ok := long.Section("telemetry.spans")
	if !ok || len(spans) >= 4<<10 {
		t.Errorf("telemetry.spans section at %d min: %d B (present %v), want < 4 KiB", 2*h, len(spans), ok)
	}
}

// BenchmarkServeCheckpointHorizon is the horizon sweep of EXPERIMENTS.md:
// the same served stream at 44, 88 and 176 minutes, reporting what one
// boundary costs in wall time and in checkpoint bytes. Flat columns mean a
// checkpoint costs one boundary, not the whole history.
//
//	go test ./internal/serve -run '^$' -bench ServeCheckpointHorizon -benchtime 3x
func BenchmarkServeCheckpointHorizon(b *testing.B) {
	for _, minutes := range []int{44, 88, 176} {
		b.Run(fmt.Sprintf("min%d", minutes), func(b *testing.B) {
			var boundaries int
			var total, lastFile int64
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				k := horizonRun(b, minutes, dir)
				boundaries += k
				b.StopTimer()
				files, err := filepath.Glob(filepath.Join(dir, "*.aqcp"))
				if err != nil {
					b.Fatal(err)
				}
				for _, path := range files {
					fi, err := os.Stat(path)
					if err != nil {
						b.Fatal(err)
					}
					total += fi.Size()
					if filepath.Base(path) == checkpointName(k) {
						lastFile = fi.Size()
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(1e3*b.Elapsed().Seconds()/float64(boundaries), "ms/boundary")
			b.ReportMetric(float64(total)/float64(boundaries), "B/boundary")
			b.ReportMetric(float64(lastFile), "B/last-file")
			b.ReportMetric(float64(total)/float64(b.N)/1e6, "MB/run")
		})
	}
}
