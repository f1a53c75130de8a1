package fd

import (
	"context"

	"fuzzyfd/internal/table"
)

// Test-only exports. datagen imports fd, so benchmarks that combine the
// two live in package fd_test and reach the engine internals they need
// through these hooks.

// HubMinTuples re-exports the intra-component parallelism threshold for
// fixture-size assertions.
const HubMinTuples = hubMinTuples

// ExtractLargestComponent materializes the largest connected component of
// the integration set as a standalone table — the hub-closure benchmark
// fixture.
func ExtractLargestComponent(tables []*table.Table, schema Schema) *table.Table {
	eng, base := outerUnion(tables, schema)
	comps := eng.partition(base)
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

// FlatReference computes the Full Disjunction without the partitioner: one
// sequential, unbucketed worklist closure over the whole outer union, then
// global subsumption. It is the independent reference for the partitioner's
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
