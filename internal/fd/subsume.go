package fd

// Subsumption removal keeps the ⊑-maximal tuples (minimal-union semantics).
//
// The closure never searches for subsumers: it reads maximality off its own
// expansion (fact 2 of complement.go). A closure tuple is maximal iff no
// attempt strictly extended it. If u ⊏ T with both in the closure, the base
// tuples below T are connected and consistent, some lie below u and some do
// not, so one base b ⊑ T, b ⋢ u shares a value with u; b is consistent with
// u (both are below T), hence merge(u, b) ≠ u succeeds when the pair (u, b)
// is attempted — and it is, b being base — which marks u entryExtended.
// Conversely a marked tuple has a closure tuple strictly above it. The kept
// tuples of a closed store are its unmarked entries (keptOf). No provenance
// moves either: in a closed store prov(t) = {b base : b ⊑ t}, so t ⊑ T
// already gives prov(t) ⊆ prov(T).
//
// The search-based removal for tuple sets that are NOT closed — the naive
// oracle's subset joins, the all-orders outer join — is test code
// (engine.subsume, oracle_test.go) and the reference the closure's marks are
// tested against (fd.FlatReference).

// keptOf returns the entries of a closed store no attempt extended, in store
// order, in a fresh slice.
func keptOf(tuples []Tuple, flags []uint8) []Tuple {
	n := 0
	for _, f := range flags {
		if f&entryExtended == 0 {
			n++
		}
	}
	kept := make([]Tuple, 0, n)
	for i, f := range flags {
		if f&entryExtended == 0 {
			kept = append(kept, tuples[i])
		}
	}
	return kept
}
