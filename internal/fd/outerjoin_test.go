package fd

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"fuzzyfd/internal/table"
)

func TestOuterJoinFDOnFig1(t *testing.T) {
	tables := fig1Fuzzy()
	schema := IdentitySchema(tables)
	oj, err := OuterJoinFD(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := FullDisjunctionContext(context.Background(), tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !oj.Table.EqualRowsUnordered(want.Table) {
		t.Errorf("outer-join FD differs:\n%v\n%v", oj.Table, want.Table)
	}
}

// On two null-free tables, a binary full outer join IS the full
// disjunction (Galindo-Legaria), so the two algorithms must agree exactly.
// (With nulls inside one input table, complementation can additionally
// integrate same-table tuples; see TestOuterJoinFDNeverOverproduces.)
func TestOuterJoinFDTwoTablesEqualsFD(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTables(r)[:2]
		for _, tb := range tables {
			for _, row := range tb.Rows {
				for j := range row {
					if row[j].IsNull {
						row[j] = table.S("1")
					}
				}
			}
		}
		schema := IdentitySchema(tables)
		oj, err := OuterJoinFD(tables, schema, Options{})
		if err != nil {
			return false
		}
		want, err := FullDisjunctionContext(context.Background(), tables, schema, Options{})
		if err != nil {
			return false
		}
		return oj.Table.EqualRowsUnordered(want.Table)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Every tuple the all-orders outer join emits must appear in (or be
// subsumed by) the complementation result: binary joins never combine two
// tuples of the same table, so on inputs with nulls they can leave partial
// tuples that complementation integrates — they under-integrate, never
// invent information.
func TestOuterJoinFDNeverOverproduces(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTables(r)
		schema := IdentitySchema(tables)
		oj, err := OuterJoinFD(tables, schema, Options{})
		if err != nil {
			return false
		}
		full, err := FullDisjunctionContext(context.Background(), tables, schema, Options{})
		if err != nil {
			return false
		}
		for _, row := range oj.Table.Rows {
			covered := false
			for _, frow := range full.Table.Rows {
				if rowsEqual(row, frow) || subsumesRows(frow, row) {
					covered = true
					break
				}
			}
			if !covered {
				t.Logf("seed %d: outer-join FD produced %v not covered by FD\nfull:\n%v", seed, row, full.Table)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func rowsEqual(a, b table.Row) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestOuterJoinFDTooManyTables(t *testing.T) {
	tables := make([]*table.Table, 7)
	for i := range tables {
		tables[i] = table.New("t", "a")
	}
	if _, err := OuterJoinFD(tables, IdentitySchema(tables), Options{}); !errors.Is(err, ErrTooManyTables) {
		t.Errorf("want ErrTooManyTables, got %v", err)
	}
}

func TestOuterJoinFDBudget(t *testing.T) {
	tables := fig1Tables()
	if _, err := OuterJoinFD(tables, IdentitySchema(tables), Options{MaxBytes: 1}); !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("want ErrMemoryBudget, got %v", err)
	}
}

func TestPermutations(t *testing.T) {
	perms := permutations(3)
	if len(perms) != 6 {
		t.Fatalf("got %d permutations", len(perms))
	}
	if perms[0][0] != 0 || perms[0][1] != 1 || perms[0][2] != 2 {
		t.Errorf("first permutation %v, want identity", perms[0])
	}
	if permutations(0) != nil {
		t.Error("permutations(0) should be nil")
	}
}
