package experiments

import "testing"

// TestArenaParallelDeterminism: serial and parallel arena runs produce
// byte-identical tables, span dumps and metric snapshots across all four
// schedulers and all three workload regimes.
func TestArenaParallelDeterminism(t *testing.T) {
	serial := serialRun(t, "arena")
	checkGolden(t, "arena", serial.r)
	checkParallelMatches(t, "arena", serial)
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
//
// It checks the serial run TestArenaParallelDeterminism already made and
// proved equal to a parallel one.
func TestArenaDifferentiation(t *testing.T) {
	r := serialRun(t, "arena").r.(ArenaResult)

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
