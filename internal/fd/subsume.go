package fd

import (
	"slices"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

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
// subsume below is the search-based removal for tuple sets that are NOT
// closed — the naive oracle's subset joins, the outer-join baselines — and
// the reference the closure's marks are tested against (fd.FlatReference).

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

// subsume removes every tuple strictly subsumed by another, folding the
// provenance of each removed tuple into one of its subsumers so every input
// TID stays represented in the output. The choice of subsumer is canonical —
// the most informative one, ties by value order — so the operators and the
// naive oracle fold identically.
//
// A subsumer must agree on every non-null cell of the subsumed tuple, so it
// necessarily appears in the posting list of any of the subsumed tuple's
// values; scanning the tuple's rarest posting list therefore finds all
// potential subsumers without a quadratic pass.
func (e *engine) subsume(tuples []Tuple) []Tuple {
	if len(tuples) <= 1 {
		return tuples
	}
	idx := newPostingIndex(e.nCols)
	filled := make([]int, len(tuples))
	for i := range tuples {
		idx.add(i, tuples[i].Cells)
		filled[i] = nonNullCount(tuples[i].Cells)
	}

	// better reports whether candidate j beats the current subsumer of a
	// tuple under the canonical rule.
	better := func(j, cur int) bool {
		if cur < 0 {
			return true
		}
		if filled[j] != filled[cur] {
			return filled[j] > filled[cur]
		}
		return e.lessCells(tuples[j].Cells, tuples[cur].Cells)
	}

	// sub[i] is the chosen subsumer of dropped tuple i, or -1.
	sub := make([]int, len(tuples))
	kept := 0
	for i := range tuples {
		cur := -1
		cells := tuples[i].Cells

		// Scan the shortest posting list among i's non-null values.
		best, bestLen := -1, 0
		for c, sym := range cells {
			if sym == intern.Null {
				continue
			}
			if n := len(idx.byCol[c][sym]); best < 0 || n < bestLen {
				best, bestLen = c, n
			}
		}
		if best < 0 {
			// All-null tuple (only from fully-empty input rows): subsumed by
			// any informative tuple; pick the canonical one. The partitioned
			// engine applies the same rule across components in foldAllNull.
			for j := range tuples {
				if j != i && filled[j] > 0 && better(j, cur) {
					cur = j
				}
			}
		} else {
			for _, j := range idx.byCol[best][cells[best]] {
				if j != i && subsumes(tuples[j].Cells, cells) && better(j, cur) {
					cur = j
				}
			}
		}
		if sub[i] = cur; cur < 0 {
			kept++
		}
	}

	// Fold provenance along subsumption chains, least-informative tuples
	// first so provenance propagates to the surviving maximal tuples (chains
	// strictly increase in informativeness, so ties need no order).
	order := make([]int, 0, len(tuples)-kept)
	for i := range tuples {
		if sub[i] >= 0 {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return filled[a] - filled[b] })
	for _, i := range order {
		if s := sub[i]; !provContains(tuples[s].Prov, tuples[i].Prov) {
			tuples[s].Prov = mergeProv(tuples[s].Prov, tuples[i].Prov)
		}
	}

	out := make([]Tuple, 0, kept)
	for i := range tuples {
		if sub[i] < 0 {
			out = append(out, tuples[i])
		}
	}
	return out
}

// subsumesRows is the decoded counterpart of subsumes, over materialized
// table rows — used by invariant checks and cross-operator comparisons that
// work on result tables rather than interned tuples.
func subsumesRows(u, t table.Row) bool {
	extra := false
	for i := range t {
		if t[i].IsNull {
			if !u[i].IsNull {
				extra = true
			}
			continue
		}
		if u[i].IsNull || u[i].Val != t[i].Val {
			return false
		}
	}
	return extra
}
