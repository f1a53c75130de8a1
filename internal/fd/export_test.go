package fd

import (
	"context"
	"reflect"
	"slices"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// Test-only exports. datagen imports fd, so benchmarks that combine the
// two live in package fd_test and reach the engine internals they need
// through these hooks.

// HubMinTuples re-exports the intra-component parallelism threshold for
// fixture-size assertions.
const HubMinTuples = hubMinTuples

// Unpivoted returns o with pivot bucketing off: every closure scans flat
// posting lists, the unbucketed path the equivalence tests compare against
// and the hub bench's seq-nopivot row measures.
func (o Options) Unpivoted() Options {
	o.noPivot = true
	return o
}

// ResultsIdentical re-exports resultsIdentical for package fd_test.
var ResultsIdentical = resultsIdentical

// resultsIdentical requires byte-identical output: same row order, same
// cells, same provenance.
func resultsIdentical(a, b *Result) bool {
	return a.Table.Equal(b.Table) && reflect.DeepEqual(a.Prov, b.Prov)
}

// components returns the connected components a fresh Index's ingest
// builds over the tables — in order of their smallest member, each with its
// members in ingest order — and the engine to decode them under.
func components(tables []*table.Table, schema Schema) (*engine, [][]Tuple) {
	x := NewIndex()
	x.widen(len(schema.Columns))
	x.ingest(tables, schema, &Stats{})
	var comps [][]Tuple
	for id, c := range x.compOf {
		if c.first != id {
			continue
		}
		comp := make([]Tuple, 0, len(c.members))
		for _, id := range slices.Sorted(slices.Values(c.members)) {
			comp = append(comp, x.base[id])
		}
		comps = append(comps, comp)
	}
	return &engine{dict: x.dict, nCols: x.nCols}, comps
}

// ExtractLargestComponent materializes the largest connected component of
// the integration set as a standalone table — the hub-closure benchmark
// fixture.
func ExtractLargestComponent(tables []*table.Table, schema Schema) *table.Table {
	eng, comps := components(tables, schema)
	var hub []Tuple
	for _, c := range comps {
		if len(c) > len(hub) {
			hub = c
		}
	}
	out := table.New("hub", schema.Columns...)
	for _, tp := range hub {
		out.Rows = append(out.Rows, eng.decodeRow(tp.Cells))
	}
	return out
}

// FlatReference computes the Full Disjunction without components: one
// sequential, unbucketed worklist closure over the whole outer union, then
// global subsumption. It is the independent reference for the component
// confinement argument on inputs too large for NaiveFD.
func FlatReference(tables []*table.Table, schema Schema) (*Result, error) {
	if err := schema.Validate(tables); err != nil {
		return nil, err
	}
	eng, tuples := outerUnion(tables, schema)
	cl := newClosure(eng, tuples, nil, -1)
	var stats Stats
	if err := cl.runFrom(context.Background(), nil, &stats); err != nil {
		return nil, err
	}
	return eng.materialize(eng.subsume(cl.tuples), schema, stats), nil
}

// outerUnion projects every input row onto the integrated schema, interning
// each distinct cell value into a fresh dictionary, and deduplicates by
// cell signature, unioning provenance — the input of the reference
// closures, which see the whole outer union at once.
func outerUnion(tables []*table.Table, schema Schema) (*engine, []Tuple) {
	eng := &engine{dict: intern.NewDict(), nCols: len(schema.Columns)}
	var tuples []Tuple
	sigs := newSigIndex(0)
	for ti, t := range tables {
		for ri, row := range t.Rows {
			cells := make([]uint32, eng.nCols) // zero-valued = all null
			for ci, cell := range row {
				if !cell.IsNull {
					cells[schema.Mapping[ti][ci]] = eng.dict.Intern(cell.Val)
				}
			}
			tid := TID{Table: ti, Row: ri}
			at, hash, ok := sigs.find(cells, tuples)
			if ok {
				tuples[at].Prov = mergeProv(tuples[at].Prov, []TID{tid})
				continue
			}
			sigs.addHashed(hash, len(tuples))
			tuples = append(tuples, Tuple{Cells: cells, Prov: []TID{tid}})
		}
	}
	return eng, tuples
}

// materialize sorts tuples with distinct cells into canonical value order
// and decodes them into a Result — the reference closures' output.
func (e *engine) materialize(kept []Tuple, schema Schema, stats Stats) *Result {
	slices.SortFunc(kept, func(a, b Tuple) int { return e.cmpCells(a.Cells, b.Cells) })
	out := table.New("FD", schema.Columns...)
	prov := make([][]TID, len(kept))
	for i, tp := range kept {
		out.Rows = append(out.Rows, e.decodeRow(tp.Cells))
		prov[i] = tp.Prov
	}
	stats.Output = len(kept)
	return &Result{Table: out, Prov: prov, Stats: stats}
}
