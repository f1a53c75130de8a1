package fd

import (
	"errors"
	"sort"

	"fuzzyfd/internal/table"
)

// This file implements the classical characterization of Full Disjunction
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

	// Group padded tuples by source table.
	perTable := make([][]Tuple, len(tables))
	for ti := range tables {
		for _, tp := range base {
			if len(tp.Prov) > 0 && provHasTable(tp.Prov, ti) {
				perTable[ti] = append(perTable[ti], tp)
			}
		}
	}

	sigs := newSigIndex()
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
			result = fullOuterJoin(result, perTable[ti], eng.nCols, &stats)
			if opts.MaxTuples > 0 && len(result) > opts.MaxTuples {
				return nil, ErrTupleBudget
			}
		}
		for _, t := range result {
			addTuple(t)
		}
		if opts.MaxTuples > 0 && len(acc) > opts.MaxTuples {
			return nil, ErrTupleBudget
		}
	}
	stats.Closure = len(acc)

	kept := eng.subsume(acc)
	stats.Subsumed = stats.Closure - len(kept)
	return eng.materialize(kept, schema, stats), nil
}

func provHasTable(prov []TID, ti int) bool {
	for _, t := range prov {
		if t.Table == ti {
			return true
		}
	}
	return false
}

// fullOuterJoin evaluates the natural full outer join of two padded tuple
// sets over the integrated schema: matched pairs (consistent and sharing
// an equal non-null value) merge; dangling tuples from both sides survive
// unchanged.
func fullOuterJoin(left, right []Tuple, nCols int, stats *Stats) []Tuple {
	idx := newPostingIndex(nCols)
	for j := range right {
		idx.add(j, right[j].Cells)
	}

	var out []Tuple
	matchedRight := make([]bool, len(right))
	var scratch stampSet
	for i := range left {
		scratch.next(len(right))
		matched := false
		idx.candidates(-1, left[i].Cells, &scratch, func(j int) {
			stats.MergeAttempts++
			merged, ok := tryMerge(left[i].Cells, right[j].Cells)
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
