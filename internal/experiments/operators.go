package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
)

// The integration operators the paper's introduction contrasts Full
// Disjunction with. They serve the operator comparison only, so they work
// on decoded rows with nested loops, and return rows in fd's output order.

// opTuple is one tuple over the integrated schema and the input tuples it
// integrates (sorted, unique).
type opTuple struct {
	cells table.Row
	prov  []fd.TID
}

// innerJoin computes the natural inner join of the integration set over
// the integrated schema: one tuple per table, pairwise consistent, and
// connected. Tuples without partners in every table are dropped — the
// paper's motivating deficiency. Joins are evaluated left-deep in input
// order.
func innerJoin(tables []*table.Table, schema fd.Schema) (*fd.Result, error) {
	return joinChain(tables, schema, nil, false)
}

// outerUnionOnly computes the plain outer union: every input tuple padded
// onto the integrated schema, deduplicated, nothing combined. Everything is
// preserved, but rows about the same entity stay fragmented.
func outerUnionOnly(tables []*table.Table, schema fd.Schema) (*fd.Result, error) {
	base, err := outerUnion(tables, schema)
	if err != nil {
		return nil, err
	}
	return materialize(base, schema), nil
}

// outerJoinChain computes left-deep binary full outer joins in the given
// table order (nil means input order) — no subsumption removal and no
// other orders, so the result depends on the order: the
// non-associativity the paper cites from Galindo-Legaria.
func outerJoinChain(tables []*table.Table, schema fd.Schema, order []int) (*fd.Result, error) {
	return joinChain(tables, schema, order, true)
}

// joinChain joins the tables' outer-union tuples left-deep in the given
// order (nil means input order), by full outer joins when outer is set and
// by inner joins otherwise. A tuple of the outer union belongs to every
// table its provenance names.
func joinChain(tables []*table.Table, schema fd.Schema, order []int, outer bool) (*fd.Result, error) {
	base, err := outerUnion(tables, schema)
	if err != nil {
		return nil, err
	}
	if order == nil {
		order = make([]int, len(tables))
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != len(tables) {
		return nil, fmt.Errorf("experiments: join order has %d entries for %d tables", len(order), len(tables))
	}
	perTable := make([][]opTuple, len(tables))
	for _, tp := range base {
		for i, tid := range tp.prov {
			if i == 0 || tid.Table != tp.prov[i-1].Table {
				perTable[tid.Table] = append(perTable[tid.Table], tp)
			}
		}
	}
	var result []opTuple
	for k, ti := range order {
		if k == 0 {
			result = perTable[ti]
		} else {
			result = join(result, perTable[ti], outer)
		}
	}
	return materialize(result, schema), nil
}

// join evaluates the natural join of two padded tuple sets over the
// integrated schema: matched pairs (consistent and sharing an equal
// non-null value) merge, and under a full outer join the dangling tuples
// of both sides survive unchanged.
func join(left, right []opTuple, outer bool) []opTuple {
	var out []opTuple
	matchedRight := make([]bool, len(right))
	for _, l := range left {
		matched := false
		for j, r := range right {
			if cells, ok := mergeRows(l.cells, r.cells); ok {
				matched, matchedRight[j] = true, true
				out = append(out, opTuple{cells, unionProv(l.prov, r.prov)})
			}
		}
		if outer && !matched {
			out = append(out, l)
		}
	}
	for j, r := range right {
		if outer && !matchedRight[j] {
			out = append(out, r)
		}
	}
	return dedupe(out)
}

// outerUnion projects every input row onto the integrated schema and
// deduplicates equal rows, unioning their provenance.
func outerUnion(tables []*table.Table, schema fd.Schema) ([]opTuple, error) {
	if err := schema.Validate(tables); err != nil {
		return nil, err
	}
	var tuples []opTuple
	for ti, t := range tables {
		for ri, row := range t.Rows {
			cells := slices.Repeat(table.Row{table.Null()}, len(schema.Columns))
			for ci, cell := range row {
				if !cell.IsNull {
					cells[schema.Mapping[ti][ci]] = table.S(cell.Val)
				}
			}
			tuples = append(tuples, opTuple{cells, []fd.TID{{Table: ti, Row: ri}}})
		}
	}
	return dedupe(tuples), nil
}

// mergeRows merges two rows if they are consistent (no column holds two
// different non-null values) and connected (at least one column is
// non-null and equal in both).
func mergeRows(a, b table.Row) (table.Row, bool) {
	out := slices.Clone(a)
	connected := false
	for i := range a {
		switch {
		case b[i].IsNull:
		case a[i].IsNull:
			out[i] = b[i]
		case a[i].Val != b[i].Val:
			return nil, false
		default:
			connected = true
		}
	}
	return out, connected
}

// dedupe merges tuples with equal cells, unioning provenance; the first
// occurrence keeps its place.
func dedupe(tuples []opTuple) []opTuple {
	var out []opTuple
next:
	for _, tp := range tuples {
		for i := range out {
			if cmpRows(out[i].cells, tp.cells) == 0 {
				out[i].prov = unionProv(out[i].prov, tp.prov)
				continue next
			}
		}
		out = append(out, tp)
	}
	return out
}

// unionProv unions two sorted provenance lists into a new one.
func unionProv(a, b []fd.TID) []fd.TID {
	out := slices.Concat(a, b)
	slices.SortFunc(out, func(x, y fd.TID) int {
		return cmp.Or(cmp.Compare(x.Table, y.Table), cmp.Compare(x.Row, y.Row))
	})
	return slices.Compact(out)
}

// cmpRows is fd's output order: cell by cell, null before any value,
// values by string order.
func cmpRows(a, b table.Row) int {
	for i := range a {
		switch {
		case a[i].IsNull && b[i].IsNull:
		case a[i].IsNull:
			return -1
		case b[i].IsNull:
			return 1
		default:
			if c := strings.Compare(a[i].Val, b[i].Val); c != 0 {
				return c
			}
		}
	}
	return 0
}

// materialize sorts distinct tuples into fd's output order and returns
// them as a Result; Stats are left zero.
func materialize(tuples []opTuple, schema fd.Schema) *fd.Result {
	slices.SortFunc(tuples, func(a, b opTuple) int { return cmpRows(a.cells, b.cells) })
	out := table.New("FD", schema.Columns...)
	prov := make([][]fd.TID, len(tuples))
	for i, tp := range tuples {
		out.Rows = append(out.Rows, tp.cells)
		prov[i] = tp.prov
	}
	return &fd.Result{Table: out, Prov: prov}
}

// coverage reports what fraction of the input tuples is represented in the
// result's provenance — 1.0 for Full Disjunction by construction, lower
// for inner joins that drop dangling tuples.
func coverage(res *fd.Result, tables []*table.Table) float64 {
	total := 0
	for _, t := range tables {
		total += len(t.Rows)
	}
	if total == 0 {
		return 1
	}
	covered := make(map[fd.TID]bool)
	for _, prov := range res.Prov {
		for _, tid := range prov {
			covered[tid] = true
		}
	}
	return float64(len(covered)) / float64(total)
}

// nullFraction reports the share of null cells in the result table — a
// completeness measure: better integration fills more cells.
func nullFraction(res *fd.Result) float64 {
	cells := res.Table.NumRows() * res.Table.NumCols()
	if cells == 0 {
		return 0
	}
	return float64(res.Table.NullCount()) / float64(cells)
}
