package fd

import (
	"errors"
	"slices"
	"sort"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// Test-only reference implementations of the Full Disjunction, sharing none
// of the closure's machinery: the definitional oracle NaiveFD, the
// all-orders outer join OuterJoinFD, and the search-based subsumption both
// end in (also behind FlatReference, export_test.go). The production closure
// never searches for subsumers (fact 2, subsume.go); comparing against
// these is how its marks are checked.

// ErrOracleTooLarge is returned by NaiveFD beyond its subset-enumeration
// budget.
var ErrOracleTooLarge = errors.New("fd: naive oracle limited to 16 outer-union tuples")

// NaiveFD computes the Full Disjunction directly from its definition, as a
// correctness oracle for property tests: enumerate every subset of
// outer-union tuples that is pairwise consistent and connected (via the
// shares-an-equal-non-null-value relation), join each subset, then apply
// signature dedup and subsumption removal. Exponential — inputs are limited
// to 16 outer-union tuples.
//
// The provenance of each output row is the union of the TIDs of every
// enumerated subset that joins to those exact cells or to a subsumed
// version of them, matching FullDisjunction's provenance-folding semantics.
func NaiveFD(tables []*table.Table, schema Schema) (*Result, error) {
	if err := schema.Validate(tables); err != nil {
		return nil, err
	}
	eng, base := outerUnion(tables, schema)
	n := len(base)
	if n > 16 {
		return nil, ErrOracleTooLarge
	}
	nCols := len(schema.Columns)

	// Pairwise relations.
	consistent := make([][]bool, n)
	connected := make([][]bool, n)
	for i := range consistent {
		consistent[i] = make([]bool, n)
		connected[i] = make([]bool, n)
		for j := range consistent[i] {
			if i == j {
				continue
			}
			ok := true
			conn := false
			for c := 0; c < nCols; c++ {
				a, b := base[i].Cells[c], base[j].Cells[c]
				if a == intern.Null || b == intern.Null {
					continue
				}
				if a != b {
					ok = false
					break
				}
				conn = true
			}
			consistent[i][j] = ok
			connected[i][j] = ok && conn
		}
	}

	isValid := func(mask uint32) bool {
		var members []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				members = append(members, i)
			}
		}
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				if !consistent[members[a]][members[b]] {
					return false
				}
			}
		}
		// Connectivity over the connected-pair graph restricted to members.
		if len(members) <= 1 {
			return true
		}
		reach := map[int]bool{members[0]: true}
		queue := []int{members[0]}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range members {
				if !reach[y] && connected[x][y] {
					reach[y] = true
					queue = append(queue, y)
				}
			}
		}
		return len(reach) == len(members)
	}

	joinOf := func(mask uint32) Tuple {
		cells := make([]uint32, nCols) // zero-valued = all null
		var prov []TID
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for c, sym := range base[i].Cells {
				if sym != intern.Null {
					cells[c] = sym
				}
			}
			prov = mergeProv(prov, base[i].Prov)
		}
		return Tuple{Cells: cells, Prov: prov}
	}

	// Collect joins of all valid non-empty subsets, deduping by signature.
	sigs := newSigIndex(0)
	var tuples []Tuple
	for mask := uint32(1); mask < 1<<n; mask++ {
		if !isValid(mask) {
			continue
		}
		t := joinOf(mask)
		at, hash, ok := sigs.find(t.Cells, tuples)
		if ok {
			tuples[at].Prov = mergeProv(tuples[at].Prov, t.Prov)
			continue
		}
		sigs.addHashed(hash, len(tuples))
		tuples = append(tuples, t)
	}

	kept := eng.subsume(tuples)
	return eng.materialize(kept, schema, Stats{}), nil
}

// OuterJoinFD implements the classical characterization of Full Disjunction
// the paper's Related Work describes (after Galindo-Legaria 1994): apply
// binary natural full outer joins over the input tables in every possible
// order, outer-union the results, and remove subsumed tuples. It serves as
// a second independently-derived FD algorithm for cross-validation and as
// an ablation baseline — its cost is factorial in the number of tables,
// which is exactly why ALITE's complementation algorithm exists.
//
// Note the well-known caveat: for some inputs with more than two tables no
// sequence of binary outer joins produces every FD tuple (the associativity
// failure that motivated FD in the first place), so OuterJoinFD can
// under-produce relative to FullDisjunction on adversarial 3+-table inputs.
// On two tables the results always agree; the property tests assert both
// facts.

// ErrTooManyTables is returned by OuterJoinFD beyond its factorial budget.
var ErrTooManyTables = errors.New("fd: all-orders outer join limited to 6 tables")

// OuterJoinFD computes (an approximation of) the Full Disjunction by
// evaluating left-deep binary full outer joins in all table orders,
// outer-unioning the results, and removing subsumed tuples.
func OuterJoinFD(tables []*table.Table, schema Schema, opts Options) (*Result, error) {
	if err := schema.Validate(tables); err != nil {
		return nil, err
	}
	if len(tables) > 6 {
		return nil, ErrTooManyTables
	}
	var stats Stats
	for _, t := range tables {
		stats.InputTuples += len(t.Rows)
	}

	eng, base := outerUnion(tables, schema)
	stats.OuterUnion = len(base)
	bud := newBudget(opts, 0, eng)
	over := func(n int) error {
		if bud == nil {
			return nil
		}
		return bud.over(int64(n))
	}

	// Group padded tuples by source table.
	perTable := make([][]Tuple, len(tables))
	for ti := range tables {
		for _, tp := range base {
			if len(tp.Prov) > 0 && provHasTable(tp.Prov, ti) {
				perTable[ti] = append(perTable[ti], tp)
			}
		}
	}

	sigs := newSigIndex(0)
	var acc []Tuple
	addTuple := func(t Tuple) {
		at, hash, ok := sigs.find(t.Cells, acc)
		if ok {
			acc[at].Prov = mergeProv(acc[at].Prov, t.Prov)
			return
		}
		sigs.addHashed(hash, len(acc))
		acc = append(acc, t)
	}

	for _, order := range permutations(len(tables)) {
		result := perTable[order[0]]
		for _, ti := range order[1:] {
			result = fullOuterJoin(result, perTable[ti], &stats)
			if err := over(len(result)); err != nil {
				return nil, err
			}
		}
		for _, t := range result {
			addTuple(t)
		}
		if err := over(len(acc)); err != nil {
			return nil, err
		}
	}
	stats.Closure = len(acc)

	kept := eng.subsume(acc)
	stats.Subsumed = stats.Closure - len(kept)
	return eng.materialize(kept, schema, stats), nil
}

// fullOuterJoin evaluates, for OuterJoinFD, the natural full outer join of
// two padded tuple sets over the integrated schema: matched pairs
// (consistent and sharing an equal non-null value) merge; dangling tuples
// from both sides survive unchanged.
func fullOuterJoin(left, right []Tuple, stats *Stats) []Tuple {
	idx := indexAll(right, -1)

	var out []Tuple
	matchedRight := make([]bool, len(right))
	var scratch stampSet
	for i := range left {
		scratch.next(len(right))
		matched := false
		idx.candidates(-1, left[i].Cells, &scratch, func(j int) {
			stats.MergeAttempts++
			merged, ok := tryMergeInto(nil, left[i].Cells, right[j].Cells)
			if !ok {
				return
			}
			stats.Merges++
			matched = true
			matchedRight[j] = true
			out = append(out, Tuple{Cells: merged, Prov: mergeProv(left[i].Prov, right[j].Prov)})
		})
		if !matched {
			out = append(out, left[i])
		}
	}
	for j := range right {
		if !matchedRight[j] {
			out = append(out, right[j])
		}
	}
	// Deduplicate within the join result.
	return dedupeTuples(out)
}

// dedupeTuples merges tuples with identical cells, unioning provenance.
func dedupeTuples(tuples []Tuple) []Tuple {
	seen := newSigIndex(len(tuples))
	out := tuples[:0]
	for _, t := range tuples {
		at, hash, ok := seen.find(t.Cells, out)
		if ok {
			out[at].Prov = mergeProv(out[at].Prov, t.Prov)
			continue
		}
		seen.addHashed(hash, len(out))
		out = append(out, t)
	}
	return out
}

// provHasTable reports whether any TID of prov comes from table ti.
func provHasTable(prov []TID, ti int) bool {
	for _, t := range prov {
		if t.Table == ti {
			return true
		}
	}
	return false
}

// permutations enumerates all orderings of 0..n-1 in lexicographic order.
func permutations(n int) [][]int {
	if n == 0 {
		return nil
	}
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			rec(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	rec(0)
	// The swap enumeration is not lexicographic; sort for determinism.
	sort.Slice(out, func(a, b int) bool {
		for i := range out[a] {
			if out[a][i] != out[b][i] {
				return out[a][i] < out[b][i]
			}
		}
		return false
	})
	return out
}

// subsume removes every tuple strictly subsumed by another, folding the
// provenance of each removed tuple into one of its subsumers so every input
// TID stays represented in the output. The choice of subsumer is canonical —
// the most informative one, ties by value order — so the references fold
// identically.
//
// A subsumer must agree on every non-null cell of the subsumed tuple, so it
// necessarily appears in the posting list of any of the subsumed tuple's
// values; scanning the tuple's rarest posting list therefore finds all
// potential subsumers without a quadratic pass.
func (e *engine) subsume(tuples []Tuple) []Tuple {
	if len(tuples) <= 1 {
		return tuples
	}
	lists := make(map[uint64][]int) // listKey(column, symbol) → tuples
	filled := make([]int, len(tuples))
	for i := range tuples {
		for c, sym := range tuples[i].Cells {
			if sym != intern.Null {
				lists[listKey(c, sym)] = append(lists[listKey(c, sym)], i)
			}
		}
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
		return e.cmpCells(tuples[j].Cells, tuples[cur].Cells) < 0
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
			if n := len(lists[listKey(c, sym)]); best < 0 || n < bestLen {
				best, bestLen = c, n
			}
		}
		if best < 0 {
			// All-null tuple (only from fully-empty input rows): subsumed by
			// any informative tuple; pick the canonical one. The index's
			// assembly applies the same rule across components (assembleRows).
			for j := range tuples {
				if j != i && filled[j] > 0 && better(j, cur) {
					cur = j
				}
			}
		} else {
			for _, j := range lists[listKey(best, cells[best])] {
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

// subsumes reports whether u strictly subsumes t: every non-null cell of t
// appears identically in u, and u carries strictly more information (more
// non-null cells; equal-information duplicates are already removed by
// signature dedup).
func subsumes(u, t []uint32) bool {
	extra := false
	for i := range t {
		if t[i] == intern.Null {
			if u[i] != intern.Null {
				extra = true
			}
			continue
		}
		if u[i] != t[i] {
			return false
		}
	}
	return extra
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
