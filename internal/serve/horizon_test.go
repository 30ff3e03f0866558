package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/chaos"
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

// TestCheckpointFlatInHorizon pins the point of storing one digest per
// section: doubling the horizon must not grow a boundary file, and a file is
// a fixed-size witness under 1 KiB — also past the training cut, where
// sectionsOpts' BNN pool holds its weights and a per-minute demand history.
func TestCheckpointFlatInHorizon(t *testing.T) {
	for _, tc := range []struct {
		name    string
		minutes int
		run     func(t *testing.T, minutes int, dir string) int
	}{
		{"caerus", 22, func(t *testing.T, minutes int, dir string) int { return horizonRun(t, minutes, dir) }},
		{"aquatope-trained", 20, func(t *testing.T, minutes int, dir string) int {
			s, err := New(sectionsOpts(t, dir, minutes))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(sourceOf(t, fixtureStream(t, minutes, 11))); err != nil {
				t.Fatal(err)
			}
			return s.Boundary()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			last := func(minutes int) int {
				dir := t.TempDir()
				k := tc.run(t, minutes, dir)
				fi, err := os.Stat(filepath.Join(dir, checkpointName(k)))
				if err != nil {
					t.Fatal(err)
				}
				return int(fi.Size())
			}
			short, long := last(tc.minutes), last(2*tc.minutes)
			if short != long || long >= 1<<10 {
				t.Errorf("last boundary file is %d B at %d min and %d B at %d min (want equal and under 1 KiB)",
					short, tc.minutes, long, 2*tc.minutes)
			}
		})
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
