package runner

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"aquatope/internal/telemetry"
)

// batch builds a deterministic job set whose replications emit spans and
// metrics derived only from a seed their harness fixed up front, the way a
// real simulator run does.
func batch(cells, reps int) []Job[int64] {
	var jobs []Job[int64]
	for c := 0; c < cells; c++ {
		for r := 0; r < reps; r++ {
			cell := fmt.Sprintf("cell%d", c)
			rep := r
			seed := int64(5 + 1000*c + 37*r)
			jobs = append(jobs, Job[int64]{Cell: cell, Rep: rep,
				Run: func(ctx Ctx) (int64, error) {
					id := ctx.Tracer.StartSpan(telemetry.KindWorkflow, cell, 0, float64(rep))
					ctx.Tracer.Point(telemetry.KindRetry, cell, id, float64(rep)+0.5,
						telemetry.Fields{"seed": float64(seed % 1000)})
					ctx.Tracer.EndSpan(id, float64(rep)+1, nil)
					ctx.Registry.Counter("runner.test.reps").Inc()
					ctx.Registry.Histogram("runner.test.seed_mod").Observe(float64(seed % 97))
					return seed, nil
				}})
		}
	}
	return jobs
}

// runBatch executes the standard batch at the given parallelism and returns
// the results plus serialized telemetry.
func runBatch(t *testing.T, parallel int) ([]int64, string, string) {
	t.Helper()
	col := telemetry.NewCollector()
	reg := telemetry.NewRegistry()
	e := &Engine{Experiment: "unit", Parallel: parallel, Collector: col, Registry: reg}
	out, err := Run(e, batch(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	var spans, metrics bytes.Buffer
	if err := col.WriteJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return out, spans.String(), metrics.String()
}

func TestRunSchedulingIndependence(t *testing.T) {
	r1, s1, m1 := runBatch(t, 1)
	for _, p := range []int{2, 7, 32} {
		rp, sp, mp := runBatch(t, p)
		for i := range r1 {
			if r1[i] != rp[i] {
				t.Fatalf("parallel=%d result[%d] = %d, want %d", p, i, rp[i], r1[i])
			}
		}
		if s1 != sp {
			t.Fatalf("parallel=%d span stream differs from serial run", p)
		}
		if m1 != mp {
			t.Fatalf("parallel=%d metric snapshot differs from serial run", p)
		}
	}
}

func TestRunPanicsSurfaceAsErrors(t *testing.T) {
	e := &Engine{Experiment: "hazard", Parallel: 4}
	var jobs []Job[string]
	for i := 0; i < 24; i++ {
		i := i
		jobs = append(jobs, Job[string]{Cell: "mixed", Rep: i,
			Run: func(Ctx) (string, error) {
				switch i % 3 {
				case 0:
					panic(fmt.Sprintf("boom %d", i))
				case 1:
					return "", fmt.Errorf("fail %d", i)
				}
				return fmt.Sprintf("ok %d", i), nil
			}})
	}
	out, err := Run(e, jobs)
	if err == nil {
		t.Fatal("expected a joined error from failing replications")
	}
	msg := err.Error()
	if !strings.Contains(msg, "panicked: boom 0") || !strings.Contains(msg, "fail 1") {
		t.Fatalf("error missing failure details:\n%s", msg)
	}
	if !strings.Contains(msg, "hazard/mixed#0") {
		t.Fatalf("error missing experiment/cell/rep labels:\n%s", msg)
	}
	// Healthy replications still produce their results.
	for i := 2; i < 24; i += 3 {
		if out[i] != fmt.Sprintf("ok %d", i) {
			t.Fatalf("result %d lost: %q", i, out[i])
		}
	}
}

func TestMustRunPanicsOnFailure(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun should panic when a replication fails")
		}
	}()
	MustRun(&Engine{Experiment: "x"}, []Job[int]{{Cell: "c",
		Run: func(Ctx) (int, error) { return 0, errors.New("nope") }}})
}

func TestRunEmptyBatch(t *testing.T) {
	out, err := Run[int](&Engine{Experiment: "empty"}, nil)
	if out != nil || err != nil {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}
