package experiments

import "testing"

// TestOverloadParallelDeterminism: serial and parallel runs of the overload
// sweep produce byte-identical tables, span dumps and metric snapshots —
// with every protection layer (admission, breakers, budgets, pool guard)
// enabled.
func TestOverloadParallelDeterminism(t *testing.T) {
	serial := serialRun(t, "overload")
	checkGolden(t, "overload", serial.r)
	checkParallelMatches(t, "overload", serial)
}

// TestOverloadCurves checks the sweep's acceptance shape: a clean baseline
// row, monotonically increasing shed rate past saturation, bounded P99
// under the deadline-carrying policies, and the retry budget recovering
// strictly more goodput than naive retries under the same overload. It
// checks the serial run TestOverloadParallelDeterminism already made and
// proved equal to a parallel one.
func TestOverloadCurves(t *testing.T) {
	r := serialRun(t, "overload").r.(OverloadResult)

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
