package experiments

import (
	"bytes"
	"testing"

	"aquatope/internal/telemetry"
)

// captureArena runs the scheduler arena at the given worker count and
// returns the result plus the rendered table, span stream and metric
// snapshot.
func captureArena(t *testing.T, parallel int) (ArenaResult, string, []byte, []byte) {
	t.Helper()
	s := micro
	s.Parallel = parallel
	col := telemetry.NewCollector()
	reg := telemetry.NewRegistry()
	s.Collector = col
	s.Registry = reg
	r := Arena(s)
	var spans, metrics bytes.Buffer
	if err := col.WriteJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return r, Table(r), spans.Bytes(), metrics.Bytes()
}

// TestArenaParallelDeterminism: serial and parallel arena runs produce
// byte-identical tables, span dumps and metric snapshots across all four
// schedulers and all three workload regimes.
func TestArenaParallelDeterminism(t *testing.T) {
	r1, table1, spans1, metrics1 := captureArena(t, 1)
	checkGolden(t, "arena", r1)
	_, table8, spans8, metrics8 := captureArena(t, 8)
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
		t.Error("expected the arena to emit spans")
	}
}

// TestArenaDifferentiation asserts the head-to-head actually separates the
// schedulers — the arena's reason to exist:
//
//   - every cell makes decisions and completes work outside the overload
//     regime;
//   - under steady traffic the naive peak-provisioned baseline is strictly
//     more expensive than AQUATOPE at an equally clean violation rate;
//   - the model-driven brain pays measurably more per decision than the
//     static baselines (the cost of intelligence is visible, not hidden);
//   - under overload AQUATOPE keeps strictly more goodput than the static
//     caerus allocation.
func TestArenaDifferentiation(t *testing.T) {
	r, _, _, _ := captureArena(t, 0)

	for _, w := range r.Workloads {
		for _, sc := range r.Schedulers {
			k := arenaKey(w, sc)
			if r.Decisions[k] == 0 {
				t.Errorf("%s: no decisions recorded", k)
			}
			if r.DecLatMS[k] <= 0 {
				t.Errorf("%s: no modeled decision latency", k)
			}
			if w != "overload" && r.Goodput[k] < 0.9 {
				t.Errorf("%s: goodput %.1f%% — cell degenerate outside overload", k, r.Goodput[k]*100)
			}
			if r.CostPerWf[k] <= 0 {
				t.Errorf("%s: non-positive cost per workflow", k)
			}
		}
	}

	// The differentiation invariant: peak provisioning buys nothing under
	// steady traffic — naive's cost must sit strictly above AQUATOPE's
	// while both hold an equally clean violation rate.
	an, aq := arenaKey("steady", "naive"), arenaKey("steady", "aquatope")
	if r.CostPerWf[an] <= r.CostPerWf[aq] {
		t.Errorf("steady: naive cost %.2f not strictly above aquatope %.2f",
			r.CostPerWf[an], r.CostPerWf[aq])
	}
	if r.Violation[an] > 0.1 || r.Violation[aq] > 0.1 {
		t.Errorf("steady: violation rates not comparably clean (naive %.1f%%, aquatope %.1f%%)",
			r.Violation[an]*100, r.Violation[aq]*100)
	}

	// Decision effort must reflect the machinery: the BNN+BO brain pays
	// more modeled latency per decision than the static baselines.
	for _, sc := range []string{"caerus", "naive"} {
		k := arenaKey("steady", sc)
		if r.DecLatMS[aq] <= r.DecLatMS[k] {
			t.Errorf("steady: aquatope decision latency %.3fms not above %s's %.3fms",
				r.DecLatMS[aq], sc, r.DecLatMS[k])
		}
	}

	// Under overload the learned scheduler must keep strictly more goodput
	// than the static caerus allocation.
	oa, oc := arenaKey("overload", "aquatope"), arenaKey("overload", "caerus")
	if r.Goodput[oa] <= r.Goodput[oc] {
		t.Errorf("overload: aquatope goodput %.1f%% not strictly above caerus %.1f%%",
			r.Goodput[oa]*100, r.Goodput[oc]*100)
	}
}
