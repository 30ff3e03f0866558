// Fixtures for the seedflow analyzer. The test config points the
// constructor catalog (Rule.Sinks) at this fixture package, so NewRNG
// below plays the role of stats.NewRNG: parameter 0 is the seed, and
// every value reaching it must trace back to a clean source (a caller
// parameter standing in for the run configuration).
package fixture

type seedRNG struct{ state int64 }

// NewRNG stands in for stats.NewRNG.
func NewRNG(seed int64) *seedRNG { return &seedRNG{state: seed} }

// --- direct constructor calls ---

func seedflowLiteral() *seedRNG {
	return NewRNG(42) // want seedflow
}

func seedflowConst() *seedRNG {
	const pinned = 1234
	return NewRNG(pinned) // want seedflow
}

func seedflowFromConfig(seed int64) *seedRNG {
	return NewRNG(seed) // ok: the seed is plumbed in by the caller
}

func seedflowMixedClean(seed int64) *seedRNG {
	return NewRNG(seed ^ 0x5eed) // ok: mixing a constant into a clean source stays clean
}

func seedflowLocalCopy() *seedRNG {
	s := int64(7)
	return NewRNG(s) // want seedflow
}

// --- helper layers: the taint fixpoint must see through plumbing ---

func buildRNG(seed int64) *seedRNG { return NewRNG(seed) }

func buildRNGSalted(seed int64) *seedRNG { return buildRNG(seed ^ 0x5a17) }

func seedflowThroughHelper() *seedRNG {
	return buildRNG(99) // want seedflow
}

func seedflowTwoLayersDeep() *seedRNG {
	return buildRNGSalted(99) // want seedflow
}

func seedflowHelperClean(cfgSeed int64) *seedRNG {
	return buildRNGSalted(cfgSeed) // ok: still the caller's seed underneath
}

// --- a helper smuggling a literal seed out through its result ---

func hardcodedSeed() int64 { return 40 + 2 }

func seedflowHelperReturn() *seedRNG {
	return NewRNG(hardcodedSeed()) // want seedflow
}

// --- allowed: demos may pin a documented seed on purpose ---

func seedflowAllowed() *seedRNG {
	return NewRNG(7) //aqualint:allow seedflow demo fixture pins the documented example seed
}
