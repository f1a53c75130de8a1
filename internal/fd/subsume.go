package fd

import (
	"sync"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// subsumeParMin is the least number of store tuples per worker at which
// the subsumer search fans out; below it goroutine startup outweighs the
// scan.
const subsumeParMin = 256

// subsume removes every tuple strictly subsumed by another (minimal-union
// semantics), folding the provenance of each removed tuple into one of its
// subsumers so every input TID stays represented in the output. The choice
// of subsumer is canonical — the most informative one, ties by value order
// — so per-component closures, the operators and the naive oracle fold
// identically.
//
// A subsumer must agree on every non-null cell of the subsumed tuple, so it
// necessarily appears in the posting list of any of the subsumed tuple's
// values; scanning the tuple's rarest posting list therefore finds all
// potential subsumers without a quadratic pass.
func (e *engine) subsume(tuples []Tuple) []Tuple {
	kept, _ := e.subsumeIncremental(tuples, nil, subCache{}, 1)
	return kept
}

// subCache is the subsumption state of a closure store prefix, cached by
// the session index with a component's store: sub[i] is entry i's canonical
// subsumer position (-1 = kept) and nonNulls[i] its informative-cell count,
// for the first len(sub) entries.
type subCache struct {
	sub      []int32
	nonNulls []int32
}

// subsumeIncremental is the full computation behind subsume, extended for
// incremental re-closure: it returns, alongside the kept tuples, each store
// entry's canonical subsumer position and non-null count so the session
// index can cache them. When old covers a prefix of the store — the
// previous run's store, whose entries and subsumption relations only ever
// grow — those entries keep their cached subsumer unless an entry past the
// prefix beats it, found from the appended side, so re-subsumption searches
// in proportion to the delta, not the store. The cache's slices are
// extended in place. Pass the zero subCache to compute from scratch.
//
// The provenance fold pass always covers the whole store, in counting-sort
// order of informativeness: folds are set unions guarded by provContains,
// so re-folding a chain the previous run already folded is an
// allocation-free no-op, and chains through new subsumers pick up exactly
// the provenance a from-scratch subsume would propagate.
//
// The subsumer search is a pure function of the (now frozen) store: each
// sub[i] reads only tuples, the index, and nonNulls. With workers > 1 the
// search chunks across goroutines — same sub array, bit for bit, as the
// sequential scan — and a nil index is built per-column in parallel
// (posting lists stay ascending because each column worker walks tuple ids
// in order). The fold and kept passes stay sequential; they are linear in
// the store and order-sensitive.
func (e *engine) subsumeIncremental(tuples []Tuple, idx *postingIndex, old subCache, workers int) ([]Tuple, subCache) {
	n0 := len(old.sub)
	sub, nonNulls := old.sub, old.nonNulls
	for i := n0; i < len(tuples); i++ {
		sub = append(sub, -1)
		nonNulls = append(nonNulls, int32(nonNullCount(tuples[i].Cells)))
	}
	cache := subCache{sub: sub, nonNulls: nonNulls}
	if len(tuples) <= 1 {
		return tuples, cache
	}
	if workers > len(tuples)/subsumeParMin {
		workers = len(tuples) / subsumeParMin
	}
	if workers < 1 {
		workers = 1
	}
	if idx == nil {
		idx = newPostingIndex(e.nCols)
		if workers > 1 {
			var wg sync.WaitGroup
			for c0 := 0; c0 < e.nCols; c0++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					col := idx.byCol[c]
					for i := range tuples {
						if sym := tuples[i].Cells[c]; sym != intern.Null {
							col[sym] = append(col[sym], i)
						}
					}
				}(c0)
			}
			wg.Wait()
		} else {
			for i := range tuples {
				idx.add(i, tuples[i].Cells)
			}
		}
	}

	// better reports whether candidate j beats the current subsumer of i
	// under the canonical rule.
	better := func(j, cur int) bool {
		if cur < 0 {
			return true
		}
		if nonNulls[j] != nonNulls[cur] {
			return nonNulls[j] > nonNulls[cur]
		}
		return e.lessCells(tuples[j].Cells, tuples[cur].Cells)
	}

	// Cached entries: only an entry appended since can beat the cached
	// subsumer, so the search runs from the appended side — each new entry
	// visits the cached entries on its posting lists (ascending, so they form
	// a prefix; on a pivoted index only the buckets whose pivot cell a
	// subsumed tuple could hold) and takes over those it subsumes better.
	// The cost follows the growth, not the store. (All-null tuples are
	// singleton components, never extended: no cached entry needs the
	// whole-store rule below.)
	for j := n0; n0 > 0 && j < len(tuples); j++ {
		cj := tuples[j].Cells
		idx.probe(cj, func(list []int) {
			for _, i := range list {
				if i >= n0 {
					break
				}
				if subsumes(cj, tuples[i].Cells) && better(j, int(sub[i])) {
					sub[i] = int32(j)
				}
			}
		})
	}

	// Appended entries search in full: sub[i] is the chosen subsumer of
	// dropped tuple i, or -1.
	search := func(i0, i1 int) {
		for i := i0; i < i1; i++ {
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
					if j != i && nonNulls[j] > 0 && better(j, cur) {
						cur = j
					}
				}
				sub[i] = int32(cur)
				continue
			}
			for _, j := range idx.byCol[best][cells[best]] {
				if j == i || !subsumes(tuples[j].Cells, cells) {
					continue
				}
				if better(j, cur) {
					cur = j
				}
			}
			sub[i] = int32(cur)
		}
	}
	if workers > 1 {
		var wg sync.WaitGroup
		chunk := (len(tuples) - n0 + workers - 1) / workers
		for i0 := n0; i0 < len(tuples); i0 += chunk {
			i1 := i0 + chunk
			if i1 > len(tuples) {
				i1 = len(tuples)
			}
			wg.Add(1)
			go func(i0, i1 int) {
				defer wg.Done()
				search(i0, i1)
			}(i0, i1)
		}
		wg.Wait()
	} else {
		search(n0, len(tuples))
	}

	// Fold provenance along subsumption chains, processing least-informative
	// tuples first so provenance propagates to the surviving maximal tuples
	// (chains strictly increase in informativeness, so ties need no order):
	// a counting sort on the non-null count, which is at most the width.
	start := make([]int32, e.nCols+2)
	kept := 0
	for i, n := range nonNulls {
		if sub[i] >= 0 {
			start[n+1]++
		} else {
			kept++
		}
	}
	for n := 1; n < len(start); n++ {
		start[n] += start[n-1]
	}
	order := make([]int32, len(tuples)-kept)
	for i, n := range nonNulls {
		if sub[i] >= 0 {
			order[start[n]] = int32(i)
			start[n]++
		}
	}
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
	return out, cache
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
