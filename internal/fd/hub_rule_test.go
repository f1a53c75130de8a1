package fd_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
)

// ladderTables builds one connected component of n tuples in which no
// column is selective enough to pivot on: row i shares link value l(i+1)
// with row i+1, and carries a value of its own in column "even" or "odd"
// by parity. Neighbors merge; the merged pair conflicts with either next
// neighbor on the parity column, so the closure stays at 2n-1 tuples. Every
// link column holds a single value, and each parity column is null in half
// of the rows, so choosePivot declines them all.
func ladderTables(n int) []*table.Table {
	tables := make([]*table.Table, n)
	for i := range tables {
		parity := "even"
		if i%2 == 1 {
			parity = "odd"
		}
		t := table.New(fmt.Sprintf("L%d", i), fmt.Sprintf("l%d", i), fmt.Sprintf("l%d", i+1), parity)
		t.MustAppendRow(table.S(fmt.Sprintf("v%d", i)), table.S(fmt.Sprintf("v%d", i+1)), table.S(fmt.Sprintf("u%d", i)))
		tables[i] = t
	}
	return tables
}

// TestHubRule pins which components Workers > 1 closes with every worker
// inside them: only a closure from scratch of at least HubMinTuples tuples
// that has a pivot column. A lone component of any smaller size and a large
// component without a pivot are closed by the sequential worklist — no
// pivot groups, and exactly the sequential run's merge attempts (it tries
// each unordered pair once). Output is byte-identical either way.
func TestHubRule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tables []*table.Table
		hub    bool
	}{
		{"one row", ladderTables(1), false},
		{"20-row component", ladderTables(20), false},
		{"pivotless component", ladderTables(fd.HubMinTuples + 88), false},
		{"hub fixture", hubTables(3000), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			schema := fd.IdentitySchema(tc.tables)
			seq, err := fd.FullDisjunctionContext(context.Background(), tc.tables, schema, fd.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if seq.Stats.Components != 1 {
				t.Fatalf("fixture has %d components, want 1", seq.Stats.Components)
			}
			if !tc.hub && seq.Stats.PivotColumn >= 0 {
				t.Fatalf("fixture: pivot column %d chosen", seq.Stats.PivotColumn)
			}
			par, err := fd.FullDisjunctionContext(context.Background(), tc.tables, schema, fd.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !par.Table.Equal(seq.Table) || !reflect.DeepEqual(par.Prov, seq.Prov) {
				t.Error("Workers 4 differs from Workers 1")
			}
			if tc.hub {
				if par.Stats.PivotGroups == 0 {
					t.Error("hub not closed by pivot groups")
				}
				return
			}
			if par.Stats.PivotGroups != 0 {
				t.Errorf("closed by %d pivot groups, want the sequential closure", par.Stats.PivotGroups)
			}
			if par.Stats.MergeAttempts != seq.Stats.MergeAttempts {
				t.Errorf("%d merge attempts under Workers 4, %d under Workers 1", par.Stats.MergeAttempts, seq.Stats.MergeAttempts)
			}
		})
	}
}
