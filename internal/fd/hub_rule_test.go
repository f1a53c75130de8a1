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

// prefixedTables copies tables with every non-null value prefixed, so no
// value of the copy equals one of the original and the two cannot join.
func prefixedTables(tables []*table.Table, prefix string) []*table.Table {
	out := make([]*table.Table, len(tables))
	for i, t := range tables {
		c := t.Clone()
		for _, row := range c.Rows {
			for j := range row {
				if !row[j].IsNull {
					row[j].Val = prefix + row[j].Val
				}
			}
		}
		out[i] = c
	}
	return out
}

// TestHubRule pins which components Workers > 1 closes with every worker
// inside them: every closure from scratch of at least HubMinTuples tuples
// that has a pivot column, however many share the round. A lone component
// of any smaller size and a large component without a pivot are closed by
// the sequential worklist — no pivot groups, and exactly the sequential
// run's merge attempts (it tries each unordered pair once). Output is
// byte-identical either way.
func TestHubRule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		parts [][]*table.Table // one component each
		hub   bool
	}{
		{"one row", [][]*table.Table{ladderTables(1)}, false},
		{"20-row component", [][]*table.Table{ladderTables(20)}, false},
		{"pivotless component", [][]*table.Table{ladderTables(fd.HubMinTuples + 88)}, false},
		{"hub fixture", [][]*table.Table{hubTables(3000)}, true},
		{"two disjoint hubs", [][]*table.Table{hubTables(3000), prefixedTables(hubTables(1500), "b:")}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tables []*table.Table
			for _, part := range tc.parts {
				tables = append(tables, part...)
			}
			schema := fd.IdentitySchema(tables)
			seq, err := fd.FullDisjunctionContext(context.Background(), tables, schema, fd.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if seq.Stats.Components != len(tc.parts) {
				t.Fatalf("fixture has %d components, want %d", seq.Stats.Components, len(tc.parts))
			}
			if !tc.hub && seq.Stats.PivotColumn >= 0 {
				t.Fatalf("fixture: pivot column %d chosen", seq.Stats.PivotColumn)
			}
			par, err := fd.FullDisjunctionContext(context.Background(), tables, schema, fd.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !par.Table.Equal(seq.Table) || !reflect.DeepEqual(par.Prov, seq.Prov) {
				t.Error("Workers 4 differs from Workers 1")
			}
			if tc.hub {
				// Every hub closes by groups: the round's groups are the
				// sum of each hub's groups when it closes alone.
				want := 0
				for _, part := range tc.parts {
					alone, err := fd.FullDisjunctionContext(context.Background(), part, fd.IdentitySchema(part), fd.Options{Workers: 4})
					if err != nil {
						t.Fatal(err)
					}
					if alone.Stats.PivotGroups == 0 {
						t.Fatal("hub not closed by pivot groups")
					}
					want += alone.Stats.PivotGroups
				}
				if par.Stats.PivotGroups != want {
					t.Errorf("%d pivot groups, want %d: a hub closed sequentially", par.Stats.PivotGroups, want)
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
