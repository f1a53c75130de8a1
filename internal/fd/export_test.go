package fd

import (
	"context"
	"reflect"
	"slices"

	"fuzzyfd/internal/table"
)

// Test-only exports. datagen imports fd, so benchmarks that combine the
// two live in package fd_test and reach the engine internals they need
// through these hooks.

// HubMinTuples re-exports the intra-component parallelism threshold for
// fixture-size assertions.
const HubMinTuples = hubMinTuples

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
	for _, c := range x.order {
		if c == nil {
			continue
		}
		comp := make([]Tuple, 0, len(c.members))
		for _, id := range slices.Sorted(slices.Values(c.members)) {
			comp = append(comp, x.base[id])
		}
		comps = append(comps, comp)
	}
	return &engine{dict: x.dict.Snapshot(), nCols: x.nCols}, comps
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
