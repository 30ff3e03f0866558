package lint

import "strings"

// Rule scopes one check to a set of packages.
type Rule struct {
	// Include lists import-path globs the check applies to; empty means
	// every package. Globs are Go-style: "aquatope/internal/..." matches
	// the package and everything below it; "..." matches all.
	Include []string
	// Exclude lists import-path globs exempt from the check; it wins over
	// Include.
	Exclude []string
	// Tests also applies the check to _test.go files. Only syntactic
	// analyzers (wallclock, globalrand) can check test files.
	Tests bool
	// Sinks overrides the package paths maporder treats as
	// order-sensitive emission targets (default: the telemetry package
	// and fmt), and the catalog metricname and seedflow check against.
	//aqualint:allow onevalue the lint fixtures point the sink list at their own packages through it
	Sinks []string
}

func (r Rule) appliesTo(pkgPath string) bool {
	for _, g := range r.Exclude {
		if matchGlob(g, pkgPath) {
			return false
		}
	}
	if len(r.Include) == 0 {
		return true
	}
	for _, g := range r.Include {
		if matchGlob(g, pkgPath) {
			return true
		}
	}
	return false
}

// matchGlob matches an import path against a Go-style package pattern:
// an exact path, "...", or "prefix/..." (which also matches "prefix").
func matchGlob(pattern, path string) bool {
	if pattern == "..." {
		return true
	}
	if p, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == p || strings.HasPrefix(path, p+"/")
	}
	return path == pattern
}

// Config maps enabled check names to their package scopes.
type Config struct {
	Checks map[string]Rule
}

// DefaultConfig returns the repository's lint policy.
//
//   - wallclock applies everywhere, tests included: every package that the
//     simulation drives must take time from the engine's virtual clock.
//     cmd binaries that legitimately measure real elapsed time annotate
//     the call sites with //aqualint:allow wallclock <reason>.
//   - globalrand applies everywhere except internal/stats, the one
//     package allowed to touch math/rand (it wraps it behind the seeded
//     stats.RNG every other component must use).
//   - maporder and droppederr apply to all compiled (non-test) files.
//   - metricname applies to all compiled files except the telemetry
//     package itself: every metric name and span kind must be built from
//     a constant in the internal/telemetry catalog (names.go / the Kind*
//     constants), so the trace analyzer and dashboards never chase
//     ad-hoc string spellings.
func DefaultConfig() Config {
	return Config{Checks: map[string]Rule{
		"wallclock": {
			Include: []string{"..."},
			Tests:   true,
		},
		"globalrand": {
			Include: []string{"..."},
			Exclude: []string{"aquatope/internal/stats"},
			Tests:   true,
		},
		"maporder": {
			Include: []string{"..."},
		},
		"droppederr": {
			Include: []string{"..."},
		},
		"metricname": {
			Include: []string{"..."},
			// The catalog package itself plumbs names through variables
			// (registry lookups take the name as a parameter).
			Exclude: []string{"aquatope/internal/telemetry"},
		},
		// seedflow proves every seed reaching an RNG constructor comes from
		// the run configuration. internal/stats is the constructor layer
		// itself (its params are the seed plumbing), and the examples are
		// demos that pin a documented seed on purpose.
		"seedflow": {
			Include: []string{"..."},
			Exclude: []string{"aquatope/internal/stats"},
		},
		// unreached and onevalue report declarations under internal/: the
		// binaries, the benchmark and the examples are the roots and
		// callers they measure those against, not code they judge.
		"unreached": {Include: []string{"aquatope/internal/..."}},
		"onevalue":  {Include: []string{"aquatope/internal/..."}},
	}}
}
