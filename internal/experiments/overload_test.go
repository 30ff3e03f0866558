package experiments

import (
	"bytes"
	"testing"

	"aquatope/internal/telemetry"
)

// captureOverload runs the overload sweep at the given worker count and
// returns the rendered table, span stream and metric snapshot.
func captureOverload(t *testing.T, parallel int) (OverloadResult, string, []byte, []byte) {
	t.Helper()
	s := micro
	s.Parallel = parallel
	col := telemetry.NewCollector()
	reg := telemetry.NewRegistry()
	s.Collector = col
	s.Registry = reg
	r := Overload(s)
	var spans, metrics bytes.Buffer
	if err := col.WriteJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return r, Table(r), spans.Bytes(), metrics.Bytes()
}

// TestOverloadParallelDeterminism: serial and parallel runs of the overload
// sweep produce byte-identical tables, span dumps and metric snapshots —
// with every protection layer (admission, breakers, budgets, pool guard)
// enabled.
func TestOverloadParallelDeterminism(t *testing.T) {
	r1, table1, spans1, metrics1 := captureOverload(t, 1)
	checkGolden(t, "overload", r1)
	_, table8, spans8, metrics8 := captureOverload(t, 8)
	if table1 != table8 {
		t.Errorf("tables diverge between -parallel 1 and 8:\n%s\nvs\n%s", table1, table8)
	}
	if !bytes.Equal(spans1, spans8) {
		t.Errorf("span streams diverge between -parallel 1 and 8 (%d vs %d bytes)", len(spans1), len(spans8))
	}
	if !bytes.Equal(metrics1, metrics8) {
		t.Errorf("metric snapshots diverge between -parallel 1 and 8")
	}
	if len(spans1) == 0 {
		t.Error("expected the overload sweep to emit spans")
	}
}

// TestOverloadCurves checks the sweep's acceptance shape: a clean baseline
// row, monotonically increasing shed rate past saturation, bounded P99
// under the deadline-carrying policies, and the retry budget recovering
// strictly more goodput than naive retries under the same overload.
func TestOverloadCurves(t *testing.T) {
	r, _, _, _ := captureOverload(t, 0)

	// Baseline (×1): no overload, nothing shed, everything in QoS.
	for _, p := range r.Policies {
		k := overloadKey(r.Mults[0], p)
		if r.ShedRate[k] != 0 {
			t.Errorf("baseline %s sheds %.2f%%", p, r.ShedRate[k]*100)
		}
		if r.Goodput[k] < 0.99 {
			t.Errorf("baseline %s goodput %.2f%%", p, r.Goodput[k]*100)
		}
		if r.Violation[k] > 0.05 {
			t.Errorf("baseline %s violation %.2f%%", p, r.Violation[k]*100)
		}
	}

	// Shed rate must increase monotonically with the load multiplier for
	// every policy.
	for _, p := range r.Policies {
		prev := -1.0
		for _, m := range r.Mults {
			k := overloadKey(m, p)
			if r.ShedRate[k] < prev {
				t.Errorf("%s shed rate not monotone: x%d=%.3f after %.3f", p, m, r.ShedRate[k], prev)
			}
			prev = r.ShedRate[k]
		}
		top := overloadKey(r.Mults[len(r.Mults)-1], p)
		if r.ShedRate[top] < 0.3 {
			t.Errorf("%s sheds only %.1f%% at the top multiplier — not past saturation", p, r.ShedRate[top]*100)
		}
	}

	// Deadline-carrying policies keep the tail bounded at every load: the
	// per-attempt timeout plus deadline-aware shedding caps queue waits.
	for _, p := range []string{"naive", "budget"} {
		for _, m := range r.Mults {
			k := overloadKey(m, p)
			if r.P99[k] > 300 {
				t.Errorf("%s P99 unbounded at x%d: %.1fs", p, m, r.P99[k])
			}
		}
	}

	// The shared retry budget degrades to fail-fast instead of amplifying
	// the overload: strictly more goodput than naive retries past
	// saturation, with the denials accounted for.
	for _, m := range r.Mults[2:] {
		nk, bk := overloadKey(m, "naive"), overloadKey(m, "budget")
		if r.Goodput[bk] <= r.Goodput[nk] {
			t.Errorf("x%d: budget goodput %.3f not above naive %.3f", m, r.Goodput[bk], r.Goodput[nk])
		}
		if r.Denied[bk] == 0 {
			t.Errorf("x%d: budget denied nothing", m)
		}
		if r.Denied[nk] != 0 {
			t.Errorf("x%d: naive policy denied %d — budget misconfigured", m, r.Denied[nk])
		}
	}
}
