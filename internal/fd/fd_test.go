package fd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fuzzyfd/internal/table"
)

// fig1Tables builds the paper's Figure 1 COVID tables (equi-join version,
// with T1's typo "Berlinn" and the inconsistent country codes intact).
func fig1Tables() []*table.Table {
	t1 := table.New("T1", "City", "Country")
	t1.MustAppendRow(table.S("Berlinn"), table.S("Germany"))
	t1.MustAppendRow(table.S("Toronto"), table.S("Canada"))
	t1.MustAppendRow(table.S("Barcelona"), table.S("Spain"))
	t1.MustAppendRow(table.S("New Delhi"), table.S("India"))

	t2 := table.New("T2", "Country", "City", "VacRate")
	t2.MustAppendRow(table.S("CA"), table.S("Toronto"), table.S("83%"))
	t2.MustAppendRow(table.S("US"), table.S("Boston"), table.S("62%"))
	t2.MustAppendRow(table.S("DE"), table.S("Berlin"), table.S("63%"))
	t2.MustAppendRow(table.S("ES"), table.S("Barcelona"), table.S("82%"))

	t3 := table.New("T3", "City", "TotalCases", "DeathRate")
	t3.MustAppendRow(table.S("Berlin"), table.S("1.4M"), table.S("147"))
	t3.MustAppendRow(table.S("barcelona"), table.S("2.68M"), table.S("275"))
	t3.MustAppendRow(table.S("Boston"), table.S("263K"), table.S("335"))
	return []*table.Table{t1, t2, t3}
}

// fig1Fuzzy builds the same tables after value matching has rewritten the
// fuzzy matches to representatives (Berlinn→Berlin, barcelona→Barcelona,
// CA→Canada, DE→Germany, ES→Spain), i.e. the input to the final equi-join
// FD step of Fuzzy FD.
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

func provSet(prov []TID) map[TID]bool {
	out := make(map[TID]bool, len(prov))
	for _, t := range prov {
		out[t] = true
	}
	return out
}

// TestFig1EquiJoin reproduces FD(T1,T2,T3) from Figure 1: nine tuples, with
// only Boston (t6+t11) and Berlin/DE (t7+t9) integrating.
func TestFig1EquiJoin(t *testing.T) {
	tables := fig1Tables()
	res, err := FullDisjunctionContext(context.Background(), tables, IdentitySchema(tables), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 9 {
		t.Fatalf("FD rows=%d want 9\n%v", res.Table.NumRows(), res.Table)
	}
	// Find the Boston row: it must merge t2.1 (US,Boston,62%) and t3.2.
	cityCol := res.Table.ColumnIndex("City")
	var bostonProv map[TID]bool
	for i, row := range res.Table.Rows {
		if !row[cityCol].IsNull && row[cityCol].Val == "Boston" {
			bostonProv = provSet(res.Prov[i])
		}
	}
	if bostonProv == nil || !bostonProv[TID{1, 1}] || !bostonProv[TID{2, 2}] {
		t.Errorf("Boston row should integrate t6 and t11: %v", bostonProv)
	}
	// Berlinn (typo) stays separate from Berlin.
	count := map[string]int{}
	for _, row := range res.Table.Rows {
		if !row[cityCol].IsNull {
			count[row[cityCol].Val]++
		}
	}
	if count["Berlinn"] != 1 || count["Berlin"] != 1 {
		t.Errorf("city counts=%v", count)
	}
}

// TestFig1Fuzzy reproduces Fuzzy FD(T1,T2,T3): five fully-integrated
// tuples, matching the bottom table of Figure 1.
func TestFig1Fuzzy(t *testing.T) {
	tables := fig1Fuzzy()
	res, err := FullDisjunctionContext(context.Background(), tables, IdentitySchema(tables), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 5 {
		t.Fatalf("Fuzzy FD rows=%d want 5\n%v", res.Table.NumRows(), res.Table)
	}
	cityCol := res.Table.ColumnIndex("City")
	wantProv := map[string][]TID{
		"Berlin":    {{0, 0}, {1, 2}, {2, 0}},
		"Toronto":   {{0, 1}, {1, 0}},
		"Barcelona": {{0, 2}, {1, 3}, {2, 1}},
		"New Delhi": {{0, 3}},
		"Boston":    {{1, 1}, {2, 2}},
	}
	for i, row := range res.Table.Rows {
		city := row[cityCol].Val
		want, ok := wantProv[city]
		if !ok {
			t.Errorf("unexpected city %q", city)
			continue
		}
		got := provSet(res.Prov[i])
		if len(got) != len(want) {
			t.Errorf("%s: prov=%v want %v", city, res.Prov[i], want)
			continue
		}
		for _, tid := range want {
			if !got[tid] {
				t.Errorf("%s: missing %v in prov %v", city, tid, res.Prov[i])
			}
		}
	}
}

func TestIdentitySchema(t *testing.T) {
	tables := fig1Tables()
	s := IdentitySchema(tables)
	want := []string{"City", "Country", "VacRate", "TotalCases", "DeathRate"}
	if len(s.Columns) != len(want) {
		t.Fatalf("columns=%v", s.Columns)
	}
	for i := range want {
		if s.Columns[i] != want[i] {
			t.Fatalf("columns=%v want %v", s.Columns, want)
		}
	}
	if err := s.Validate(tables); err != nil {
		t.Error(err)
	}
}

func TestSchemaValidate(t *testing.T) {
	tables := fig1Tables()
	s := IdentitySchema(tables)

	bad := s
	bad.Mapping = s.Mapping[:2]
	if err := bad.Validate(tables); err == nil {
		t.Error("short mapping accepted")
	}

	bad = IdentitySchema(tables)
	bad.Mapping[0][0] = 99
	if err := bad.Validate(tables); err == nil {
		t.Error("out-of-range output column accepted")
	}

	bad = IdentitySchema(tables)
	bad.Mapping[0][1] = bad.Mapping[0][0]
	if err := bad.Validate(tables); err == nil {
		t.Error("duplicate output column within a table accepted")
	}
}

// unbounded is a byte ceiling no fixture reaches: it turns the memory
// estimate (Stats.MemoryBytes) on without aborting anything.
const unbounded = 1 << 62

// closureBytes is the memory estimate of the one-shot Full Disjunction of
// tables — the exact trip point of the byte ceiling: MaxBytes at this value
// passes and one byte below aborts, at every Workers setting.
func closureBytes(t testing.TB, tables []*table.Table, schema Schema) int64 {
	t.Helper()
	res, err := FullDisjunctionContext(context.Background(), tables, schema, Options{MaxBytes: unbounded})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats.MemoryBytes
}

func TestMemoryBudget(t *testing.T) {
	tables := fig1Tables()
	schema := IdentitySchema(tables)
	_, err := FullDisjunctionContext(context.Background(), tables, schema, Options{MaxBytes: 128})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("tiny budget: want ErrMemoryBudget, got %v", err)
	}
	res, err := FullDisjunctionContext(context.Background(), tables, schema, Options{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	if res.Stats.MemoryBytes <= 0 || res.Stats.MemoryBytes > 1<<20 {
		t.Errorf("Stats.MemoryBytes = %d, want in (0, 1MiB]", res.Stats.MemoryBytes)
	}
}

func TestEmptyAndSingleTable(t *testing.T) {
	empty := table.New("e", "a")
	res, err := FullDisjunctionContext(context.Background(), []*table.Table{empty}, IdentitySchema([]*table.Table{empty}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 0 {
		t.Errorf("empty table FD rows=%d", res.Table.NumRows())
	}

	one := table.New("t", "a", "b")
	one.MustAppendRow(table.S("1"), table.S("2"))
	one.MustAppendRow(table.S("1"), table.Null())
	res, err = FullDisjunctionContext(context.Background(), []*table.Table{one}, IdentitySchema([]*table.Table{one}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// (1,⊥) is subsumed by (1,2).
	if res.Table.NumRows() != 1 {
		t.Fatalf("rows=%d want 1\n%v", res.Table.NumRows(), res.Table)
	}
	if got := provSet(res.Prov[0]); !got[TID{0, 0}] || !got[TID{0, 1}] {
		t.Errorf("subsumed tuple's provenance should fold into subsumer: %v", res.Prov[0])
	}
}

func TestDuplicateRowsUnionProvenance(t *testing.T) {
	tb := table.New("t", "a")
	tb.MustAppendRow(table.S("x"))
	tb.MustAppendRow(table.S("x"))
	res, err := FullDisjunctionContext(context.Background(), []*table.Table{tb}, IdentitySchema([]*table.Table{tb}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 || len(res.Prov[0]) != 2 {
		t.Errorf("rows=%d prov=%v", res.Table.NumRows(), res.Prov)
	}
}

// randomTables builds a small random integration set over shared column
// names with a tiny value alphabet, to exercise joins, conflicts, and
// subsumption.
func randomTables(r *rand.Rand) []*table.Table {
	cols := []string{"a", "b", "c", "d"}
	vals := []string{"1", "2", "3"}
	nTables := 2 + r.Intn(2)
	tables := make([]*table.Table, nTables)
	for ti := range tables {
		// Each table uses a random contiguous slice of columns so schemas
		// overlap partially.
		lo := r.Intn(2)
		hi := lo + 2 + r.Intn(len(cols)-lo-1)
		if hi > len(cols) {
			hi = len(cols)
		}
		tb := table.New(fmt.Sprintf("t%d", ti), cols[lo:hi]...)
		rows := 1 + r.Intn(3)
		for i := 0; i < rows; i++ {
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

// The central correctness property: the complementation algorithm equals
// the definitional oracle, for both sequential and parallel execution.
func TestFDMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTables(r)
		schema := IdentitySchema(tables)
		want, err := NaiveFD(tables, schema)
		if errors.Is(err, ErrOracleTooLarge) {
			return true // skip oversized draws
		}
		if err != nil {
			return false
		}
		for _, workers := range []int{1, 4} {
			got, err := FullDisjunctionContext(context.Background(), tables, schema, Options{Workers: workers})
			if err != nil {
				t.Logf("seed %d workers %d: %v", seed, workers, err)
				return false
			}
			if !got.Table.EqualRowsUnordered(want.Table) {
				t.Logf("seed %d workers %d:\ninput:\n%v\ngot:\n%v\nwant:\n%v",
					seed, workers, tables, got.Table, want.Table)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// FD must be order-insensitive: permuting the integration set permutes
// provenance table indices but yields the same set of value tuples.
func TestFDOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTables(r)
		res1, err := FullDisjunctionContext(context.Background(), tables, IdentitySchema(tables), Options{})
		if err != nil {
			return false
		}
		perm := r.Perm(len(tables))
		shuffled := make([]*table.Table, len(tables))
		for i, p := range perm {
			shuffled[i] = tables[p]
		}
		res2, err := FullDisjunctionContext(context.Background(), shuffled, IdentitySchema(shuffled), Options{})
		if err != nil {
			return false
		}
		// Schemas may order columns differently; compare projected onto
		// res1's column order.
		proj := make([]int, len(res1.Table.Columns))
		for i, name := range res1.Table.Columns {
			proj[i] = res2.Table.ColumnIndex(name)
			if proj[i] < 0 {
				return false
			}
		}
		p2, err := res2.Table.Project(proj...)
		if err != nil {
			return false
		}
		p2.Name = res1.Table.Name
		return res1.Table.EqualRowsUnordered(p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Structural invariants of any FD output: no tuple subsumes another, every
// input TID appears in some provenance set, and re-running FD over the
// output is a fixpoint.
func TestFDInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTables(r)
		res, err := FullDisjunctionContext(context.Background(), tables, IdentitySchema(tables), Options{})
		if err != nil {
			return false
		}
		// No pairwise subsumption.
		rows := res.Table.Rows
		for i := range rows {
			for j := range rows {
				if i != j && subsumesRows(rows[i], rows[j]) {
					return false
				}
			}
		}
		// TID coverage.
		covered := make(map[TID]bool)
		for _, prov := range res.Prov {
			for _, tid := range prov {
				covered[tid] = true
			}
		}
		for ti, tb := range tables {
			for ri := range tb.Rows {
				if !covered[TID{ti, ri}] {
					return false
				}
			}
		}
		// Fixpoint: FD(FD(T)) has the same rows. Merged tuples cannot merge
		// further (any consistent connected pair would have merged), and
		// nothing is subsumed.
		again, err := FullDisjunctionContext(context.Background(), []*table.Table{res.Table}, IdentitySchema([]*table.Table{res.Table}), Options{})
		if err != nil {
			return false
		}
		return again.Table.EqualRowsUnordered(res.Table)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestParallelMatchesSequentialOnFig1(t *testing.T) {
	tables := fig1Fuzzy()
	seq, err := FullDisjunctionContext(context.Background(), tables, IdentitySchema(tables), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := FullDisjunctionContext(context.Background(), tables, IdentitySchema(tables), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Table.Equal(par.Table) {
		t.Errorf("parallel output differs:\n%v\n%v", seq.Table, par.Table)
	}
}

func TestStatsPopulated(t *testing.T) {
	tables := fig1Fuzzy()
	res, err := FullDisjunctionContext(context.Background(), tables, IdentitySchema(tables), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.InputTuples != 11 || s.OuterUnion != 11 {
		t.Errorf("input stats: %+v", s)
	}
	if s.Merges == 0 || s.MergeAttempts < s.Merges {
		t.Errorf("merge stats: %+v", s)
	}
	if s.Output != 5 || s.Subsumed == 0 {
		t.Errorf("output stats: %+v", s)
	}
	if s.Elapsed <= 0 {
		t.Errorf("elapsed: %+v", s)
	}
}

func TestTIDString(t *testing.T) {
	if got := (TID{1, 9}).String(); got != "t1.9" {
		t.Errorf("TID.String()=%q", got)
	}
}

// Fuzz-ish check of tryMergeInto semantics, on raw symbols (0 = null).
func TestTryMerge(t *testing.T) {
	// Consistent and connected.
	m, ok := tryMergeInto(nil, []uint32{1, 0, 2}, []uint32{1, 3, 0})
	if !ok || m[0] != 1 || m[1] != 3 || m[2] != 2 {
		t.Errorf("merge=%v ok=%v", m, ok)
	}
	// Conflict.
	if _, ok := tryMergeInto(nil, []uint32{1}, []uint32{2}); ok {
		t.Error("conflicting tuples merged")
	}
	// Disconnected (no shared non-null attribute).
	if _, ok := tryMergeInto(nil, []uint32{1, 0}, []uint32{0, 2}); ok {
		t.Error("disconnected tuples merged")
	}
}

func TestSubsumes(t *testing.T) {
	if !subsumes([]uint32{1, 2}, []uint32{1, 0}) {
		t.Error("strict subsumption missed")
	}
	if subsumes([]uint32{1, 2}, []uint32{1, 2}) {
		t.Error("equal tuples must not subsume (strictness)")
	}
	if subsumes([]uint32{1, 0}, []uint32{1, 2}) {
		t.Error("less-informative tuple cannot subsume")
	}
	if subsumes([]uint32{1, 3}, []uint32{1, 2}) {
		t.Error("conflicting tuple cannot subsume")
	}
}

func TestSubsumesRows(t *testing.T) {
	n := table.Null()
	v := func(s string) table.Cell { return table.S(s) }
	if !subsumesRows(table.Row{v("1"), v("2")}, table.Row{v("1"), n}) {
		t.Error("strict subsumption missed")
	}
	if subsumesRows(table.Row{v("1"), v("2")}, table.Row{v("1"), v("2")}) {
		t.Error("equal rows must not subsume (strictness)")
	}
	if subsumesRows(table.Row{v("1"), n}, table.Row{v("1"), v("2")}) {
		t.Error("less-informative row cannot subsume")
	}
	if subsumesRows(table.Row{v("1"), v("3")}, table.Row{v("1"), v("2")}) {
		t.Error("conflicting row cannot subsume")
	}
}
