package fd

import (
	"fmt"

	"fuzzyfd/internal/table"
)

// This file implements the basic integration operators the paper's
// introduction contrasts Full Disjunction with: the n-way natural inner
// join (drops any tuple without a join partner in even one table), the
// outer union (keeps everything but combines nothing), and a single-order
// chain of binary outer joins (combines, but is order-dependent — the very
// deficiency FD was introduced to fix). They exist as runnable baselines
// for the information-preservation comparison in the experiment harness.
// Like FullDisjunction they run on interned symbols end to end.

// InnerJoin computes the natural inner join of the integration set over
// the integrated schema: one tuple per table, pairwise consistent, and
// connected. Tuples without partners in every table are dropped — the
// paper's motivating deficiency. Joins are evaluated left-deep in input
// order; Options.MaxTuples bounds intermediate growth.
func InnerJoin(tables []*table.Table, schema Schema, opts Options) (*Result, error) {
	if err := schema.Validate(tables); err != nil {
		return nil, err
	}
	var stats Stats
	for _, t := range tables {
		stats.InputTuples += len(t.Rows)
	}
	eng, base := outerUnion(tables, schema)
	stats.OuterUnion = len(base)

	perTable := make([][]Tuple, len(tables))
	for ti := range tables {
		for _, tp := range base {
			if provHasTable(tp.Prov, ti) {
				perTable[ti] = append(perTable[ti], tp)
			}
		}
	}

	var result []Tuple
	if len(perTable) > 0 {
		result = perTable[0]
	}
	for _, right := range perTable[1:] {
		idx := indexAll(right, -1)
		var next []Tuple
		var scratch stampSet
		for i := range result {
			scratch.next(len(right))
			idx.candidates(-1, result[i].Cells, &scratch, func(j int) {
				stats.MergeAttempts++
				merged, ok := tryMerge(result[i].Cells, right[j].Cells)
				if !ok {
					return
				}
				stats.Merges++
				next = append(next, Tuple{Cells: merged, Prov: mergeProv(result[i].Prov, right[j].Prov)})
			})
		}
		result = dedupeTuples(next)
		if opts.MaxTuples > 0 && len(result) > opts.MaxTuples {
			return nil, ErrTupleBudget
		}
	}
	return eng.materialize(result, schema, stats), nil
}

// OuterUnionOnly computes the plain outer union: every input tuple padded
// onto the integrated schema, deduplicated, nothing combined. Everything is
// preserved, but rows about the same entity stay fragmented.
func OuterUnionOnly(tables []*table.Table, schema Schema) (*Result, error) {
	if err := schema.Validate(tables); err != nil {
		return nil, err
	}
	var stats Stats
	for _, t := range tables {
		stats.InputTuples += len(t.Rows)
	}
	eng, base := outerUnion(tables, schema)
	stats.OuterUnion = len(base)
	return eng.materialize(base, schema, stats), nil
}

// OuterJoinChain computes left-deep binary full outer joins in the given
// table order (nil means input order) followed by deduplication — no
// subsumption removal and no other orders, so the result depends on the
// order: the non-associativity the paper cites from Galindo-Legaria.
func OuterJoinChain(tables []*table.Table, schema Schema, order []int, opts Options) (*Result, error) {
	if err := schema.Validate(tables); err != nil {
		return nil, err
	}
	if order == nil {
		order = make([]int, len(tables))
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != len(tables) {
		return nil, fmt.Errorf("fd: outer join order has %d entries for %d tables", len(order), len(tables))
	}
	var stats Stats
	for _, t := range tables {
		stats.InputTuples += len(t.Rows)
	}
	eng, base := outerUnion(tables, schema)
	stats.OuterUnion = len(base)

	perTable := make([][]Tuple, len(tables))
	for ti := range tables {
		for _, tp := range base {
			if provHasTable(tp.Prov, ti) {
				perTable[ti] = append(perTable[ti], tp)
			}
		}
	}

	var result []Tuple
	if len(order) > 0 {
		result = perTable[order[0]]
	}
	for _, ti := range order[1:] {
		result = fullOuterJoin(result, perTable[ti], &stats)
		if opts.MaxTuples > 0 && len(result) > opts.MaxTuples {
			return nil, ErrTupleBudget
		}
	}
	return eng.materialize(dedupeTuples(result), schema, stats), nil
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

// Coverage reports what fraction of the input tuples is represented in the
// result's provenance — 1.0 for Full Disjunction by construction, lower
// for inner joins that drop dangling tuples.
func Coverage(res *Result, tables []*table.Table) float64 {
	total := 0
	for _, t := range tables {
		total += len(t.Rows)
	}
	if total == 0 {
		return 1
	}
	covered := make(map[TID]bool)
	for _, prov := range res.Prov {
		for _, tid := range prov {
			covered[tid] = true
		}
	}
	return float64(len(covered)) / float64(total)
}

// NullFraction reports the share of null cells in the result table — a
// completeness measure: better integration fills more cells.
func NullFraction(res *Result) float64 {
	cells := res.Table.NumRows() * res.Table.NumCols()
	if cells == 0 {
		return 0
	}
	return float64(res.Table.NullCount()) / float64(cells)
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

// fullOuterJoin evaluates the natural full outer join of two padded tuple
// sets over the integrated schema: matched pairs (consistent and sharing
// an equal non-null value) merge; dangling tuples from both sides survive
// unchanged.
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
