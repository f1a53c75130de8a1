package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
)

// fig1Fuzzy is the paper's Figure 1 after fuzzy value matching: the three
// COVID tables with every surface form rewritten to its representative.
func fig1Fuzzy() []*table.Table {
	t1 := table.New("T1", "City", "Country")
	t1.MustAppendRow(table.S("Berlin"), table.S("Germany"))
	t1.MustAppendRow(table.S("Toronto"), table.S("Canada"))
	t1.MustAppendRow(table.S("Barcelona"), table.S("Spain"))
	t1.MustAppendRow(table.S("New Delhi"), table.S("India"))

	t2 := table.New("T2", "Country", "City", "VacRate")
	t2.MustAppendRow(table.S("Canada"), table.S("Toronto"), table.S("83%"))
	t2.MustAppendRow(table.S("US"), table.S("Boston"), table.S("62%"))
	t2.MustAppendRow(table.S("Germany"), table.S("Berlin"), table.S("63%"))
	t2.MustAppendRow(table.S("Spain"), table.S("Barcelona"), table.S("82%"))

	t3 := table.New("T3", "City", "TotalCases", "DeathRate")
	t3.MustAppendRow(table.S("Berlin"), table.S("1.4M"), table.S("147"))
	t3.MustAppendRow(table.S("Barcelona"), table.S("2.68M"), table.S("275"))
	t3.MustAppendRow(table.S("Boston"), table.S("263K"), table.S("335"))
	return []*table.Table{t1, t2, t3}
}

// randomTables builds a small random integration set over partially
// overlapping column ranges, with a value domain small enough that rows
// join and conflict often.
func randomTables(r *rand.Rand) []*table.Table {
	cols := []string{"a", "b", "c", "d"}
	vals := []string{"1", "2", "3"}
	tables := make([]*table.Table, 2+r.Intn(2))
	for ti := range tables {
		lo := r.Intn(2)
		hi := min(lo+2+r.Intn(len(cols)-lo-1), len(cols))
		tb := table.New(fmt.Sprintf("t%d", ti), cols[lo:hi]...)
		for range 1 + r.Intn(3) {
			row := make(table.Row, hi-lo)
			for j := range row {
				if r.Intn(4) == 0 {
					row[j] = table.Null()
				} else {
					row[j] = table.S(vals[r.Intn(len(vals))])
				}
			}
			tb.Rows = append(tb.Rows, row)
		}
		tables[ti] = tb
	}
	return tables
}

// covers reports whether u equals or subsumes t: u holds every non-null
// value of t.
func covers(u, t table.Row) bool {
	for i := range t {
		if !t[i].IsNull && !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// On the Fig. 1 tables (fuzzy-rewritten), the inner join keeps only the
// tuples joinable across all three tables: Berlin and Barcelona.
func TestInnerJoinFig1(t *testing.T) {
	tables := fig1Fuzzy()
	res, err := innerJoin(tables, fd.IdentitySchema(tables))
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("inner join rows=%d want 2\n%v", res.Table.NumRows(), res.Table)
	}
	cities := map[string]bool{}
	ci := res.Table.ColumnIndex("City")
	for _, row := range res.Table.Rows {
		cities[row[ci].Val] = true
	}
	if !cities["Berlin"] || !cities["Barcelona"] {
		t.Errorf("cities=%v", cities)
	}
	// Coverage drops: New Delhi, Toronto, Boston tuples are lost.
	if c := coverage(res, tables); c >= 1 {
		t.Errorf("inner join coverage=%v, should lose tuples", c)
	}
}

func TestOuterUnionOnlyFig1(t *testing.T) {
	tables := fig1Fuzzy()
	res, err := outerUnionOnly(tables, fd.IdentitySchema(tables))
	if err != nil {
		t.Fatal(err)
	}
	// Nothing combined: one row per input tuple (no duplicates here).
	if res.Table.NumRows() != 11 {
		t.Errorf("outer union rows=%d want 11", res.Table.NumRows())
	}
	if c := coverage(res, tables); c != 1 {
		t.Errorf("outer union coverage=%v want 1", c)
	}
	// Fragmented: more nulls per row than FD's output.
	full, err := fd.FullDisjunctionContext(context.Background(), tables, fd.IdentitySchema(tables), fd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nullFraction(res) <= nullFraction(full) {
		t.Errorf("outer union null fraction %v should exceed FD's %v", nullFraction(res), nullFraction(full))
	}
}

// Order dependence of binary outer joins: the paper's reason FD exists.
// Build the classic instance where joining in different orders yields
// different results.
func TestOuterJoinChainOrderDependence(t *testing.T) {
	// R(a,b)={(1,2)}, S(b,c)={(2,3)}, T(a,c)={(1,9)}.
	r := table.New("R", "a", "b")
	r.MustAppendRow(table.S("1"), table.S("2"))
	s := table.New("S", "b", "c")
	s.MustAppendRow(table.S("2"), table.S("3"))
	u := table.New("T", "a", "c")
	u.MustAppendRow(table.S("1"), table.S("9"))
	tables := []*table.Table{r, s, u}
	schema := fd.IdentitySchema(tables)

	// (R ⟗ S) ⟗ T: R and S join to (1,2,3); conflicting with T on c → T
	// dangles.
	res1, err := outerJoinChain(tables, schema, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// (R ⟗ T) ⟗ S: R and T join to (1,2,9); conflicting with S on c → S
	// dangles.
	res2, err := outerJoinChain(tables, schema, []int{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Table.EqualRowsUnordered(res2.Table) {
		t.Errorf("different orders should differ:\n%v\n%v", res1.Table, res2.Table)
	}
}

func TestOuterJoinChainBadOrder(t *testing.T) {
	tables := fig1Fuzzy()
	if _, err := outerJoinChain(tables, fd.IdentitySchema(tables), []int{0}); err == nil {
		t.Error("short order accepted")
	}
}

// Information-preservation ordering on random inputs: inner join covers a
// subset of the input tuples; outer union and FD cover all of them; and
// every inner-join row must appear in (or be subsumed by) an FD row.
func TestOperatorHierarchy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTables(r)
		schema := fd.IdentitySchema(tables)

		inner, err := innerJoin(tables, schema)
		if err != nil {
			return false
		}
		union, err := outerUnionOnly(tables, schema)
		if err != nil {
			return false
		}
		full, err := fd.FullDisjunctionContext(context.Background(), tables, schema, fd.Options{})
		if err != nil {
			return false
		}
		if coverage(union, tables) != 1 || coverage(full, tables) != 1 {
			return false
		}
		if coverage(inner, tables) > 1 {
			return false
		}
		for _, row := range inner.Table.Rows {
			covered := false
			for _, frow := range full.Table.Rows {
				if covers(frow, row) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCoverageAndNullFractionEdge(t *testing.T) {
	empty := table.New("e", "a")
	res, err := outerUnionOnly([]*table.Table{empty}, fd.IdentitySchema([]*table.Table{empty}))
	if err != nil {
		t.Fatal(err)
	}
	if coverage(res, []*table.Table{empty}) != 1 {
		t.Error("empty input coverage should be 1")
	}
	if nullFraction(res) != 0 {
		t.Error("empty result null fraction should be 0")
	}
}
