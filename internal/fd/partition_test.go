package fd

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"fuzzyfd/internal/table"
)

// --- components -------------------------------------------------------------

// partitionOf returns the components the index's ingest builds over the
// tables.
func partitionOf(t *testing.T, tables []*table.Table) (*engine, [][]Tuple) {
	t.Helper()
	return components(tables, IdentitySchema(tables))
}

func TestPartitionDisconnected(t *testing.T) {
	// Disjoint value spaces: every row is its own component.
	tb := table.New("t", "a", "b")
	tb.MustAppendRow(table.S("1"), table.S("x"))
	tb.MustAppendRow(table.S("2"), table.S("y"))
	tb.MustAppendRow(table.S("3"), table.S("z"))
	_, comps := partitionOf(t, []*table.Table{tb})
	if len(comps) != 3 {
		t.Fatalf("components=%d want 3", len(comps))
	}
	for _, c := range comps {
		if len(c) != 1 {
			t.Errorf("component size=%d want 1", len(c))
		}
	}
}

func TestPartitionSingleton(t *testing.T) {
	tb := table.New("t", "a")
	tb.MustAppendRow(table.S("only"))
	_, comps := partitionOf(t, []*table.Table{tb})
	if len(comps) != 1 || len(comps[0]) != 1 {
		t.Fatalf("comps=%v", comps)
	}
}

func TestPartitionEmpty(t *testing.T) {
	tb := table.New("t", "a")
	_, comps := partitionOf(t, []*table.Table{tb})
	if comps != nil {
		t.Fatalf("empty input gave %d components", len(comps))
	}
}

func TestPartitionFullyConnected(t *testing.T) {
	// Every row shares the key and never conflicts: one component.
	t1 := table.New("t1", "k", "b")
	t1.MustAppendRow(table.S("k0"), table.S("x"))
	t2 := table.New("t2", "k", "c")
	t2.MustAppendRow(table.S("k0"), table.S("y"))
	t3 := table.New("t3", "k", "d")
	t3.MustAppendRow(table.S("k0"), table.S("z"))
	_, comps := partitionOf(t, []*table.Table{t1, t2, t3})
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("components=%d sizes=%v, want one of size 3", len(comps), len(comps[0]))
	}
}

// Components follow the mergeable relation, not shares-a-value: rows
// sharing a low-selectivity value but conflicting elsewhere must not be
// chained into one component.
func TestPartitionSharedValueButInconsistent(t *testing.T) {
	tb := table.New("t", "a", "b")
	tb.MustAppendRow(table.S("k"), table.S("1"))
	tb.MustAppendRow(table.S("k"), table.S("2"))
	_, comps := partitionOf(t, []*table.Table{tb})
	if len(comps) != 2 {
		t.Fatalf("conflicting rows sharing a value landed in %d component(s), want 2", len(comps))
	}
}

// Transitive connection through a bridging tuple: a and b conflict, but a
// null-padded bridge is mergeable with both, so all three share a
// component.
func TestPartitionBridge(t *testing.T) {
	t1 := table.New("t1", "a", "b", "c")
	t1.MustAppendRow(table.S("k"), table.S("1"), table.Null())
	t1.MustAppendRow(table.S("k"), table.S("2"), table.Null())
	t2 := table.New("t2", "a", "c")
	t2.MustAppendRow(table.S("k"), table.S("z"))
	_, comps := partitionOf(t, []*table.Table{t1, t2})
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("bridge case: components=%d, want 1 of size 3", len(comps))
	}
}

func TestPartitionAllNullSingleton(t *testing.T) {
	tb := table.New("t", "a", "b")
	tb.MustAppendRow(table.Null(), table.Null())
	tb.MustAppendRow(table.S("x"), table.S("y"))
	_, comps := partitionOf(t, []*table.Table{tb})
	if len(comps) != 2 {
		t.Fatalf("all-null row should form its own component: %d", len(comps))
	}
}

// --- engine equivalence -----------------------------------------------------

// The central refactor property: the interned, component-partitioned
// engine produces byte-identical tables AND provenance to the definitional
// oracle, and the flat reference and the parallel variants agree too.
func TestPartitionedMatchesNaive(t *testing.T) {
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
		flat, err := FlatReference(tables, schema)
		if err != nil || !resultsIdentical(flat, want) {
			t.Logf("seed %d: flat reference differs from the oracle (err %v)", seed, err)
			return false
		}
		for _, opts := range []Options{{}, {Workers: 4}} {
			got, err := FullDisjunction(tables, schema, opts)
			if err != nil {
				t.Logf("seed %d opts %+v: %v", seed, opts, err)
				return false
			}
			if !resultsIdentical(got, want) {
				t.Logf("seed %d opts %+v:\ninput:\n%v\ngot:\n%v %v\nwant:\n%v %v",
					seed, opts, tables, got.Table, got.Prov, want.Table, want.Prov)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomTablesWithEmptyRows extends randomTables with occasional fully-null
// rows, exercising the all-null singleton component and the global
// provenance fold.
func randomTablesWithEmptyRows(r *rand.Rand) []*table.Table {
	tables := randomTables(r)
	for _, tb := range tables {
		if r.Intn(2) == 0 {
			row := make(table.Row, len(tb.Columns))
			for j := range row {
				row[j] = table.Null()
			}
			tb.Rows = append(tb.Rows, row)
		}
	}
	return tables
}

// Workers > 1 equals the sequential run on random integration sets with
// fully-null rows, across worker counts. Runs under -race in CI.
func TestConcurrentClosureMatchesSequentialRandom(t *testing.T) {
	variants := []Options{{Workers: 2}, {Workers: 4}, {Workers: 8}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTablesWithEmptyRows(r)
		schema := IdentitySchema(tables)
		want, err := FullDisjunction(tables, schema, Options{})
		if err != nil {
			return false
		}
		for _, opts := range variants {
			got, err := FullDisjunction(tables, schema, opts)
			if err != nil {
				t.Logf("seed %d opts %+v: %v", seed, opts, err)
				return false
			}
			if !resultsIdentical(got, want) {
				t.Logf("seed %d opts %+v:\ninput:\n%v\ngot:\n%v %v\nwant:\n%v %v",
					seed, opts, tables, got.Table, got.Prov, want.Table, want.Prov)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPartitionedMatchesFlatWithEmptyRows(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTablesWithEmptyRows(r)
		schema := IdentitySchema(tables)
		flat, err := FlatReference(tables, schema)
		if err != nil {
			return false
		}
		part, err := FullDisjunction(tables, schema, Options{})
		if err != nil {
			return false
		}
		if !resultsIdentical(part, flat) {
			t.Logf("seed %d:\ninput:\n%v\npartitioned:\n%v %v\nflat:\n%v %v",
				seed, tables, part.Table, part.Prov, flat.Table, flat.Prov)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Partition stats must describe the partition the closure actually used.
func TestPartitionStats(t *testing.T) {
	tables := fig1Fuzzy()
	res, err := FullDisjunction(tables, IdentitySchema(tables), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Components < 4 {
		t.Errorf("Components=%d want >=4 (per-city integration sets)", s.Components)
	}
	if s.LargestComp < 2 || s.LargestComp > s.OuterUnion {
		t.Errorf("LargestComp=%d outside [2, %d]", s.LargestComp, s.OuterUnion)
	}
	if s.LargestClose < s.LargestComp || s.LargestClose > s.Closure {
		t.Errorf("LargestClose=%d inconsistent with LargestComp=%d Closure=%d",
			s.LargestClose, s.LargestComp, s.Closure)
	}
	if s.Values == 0 {
		t.Error("Values not populated")
	}
	flat, err := FlatReference(tables, IdentitySchema(tables))
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(res, flat) {
		t.Error("flat reference and component-partitioned engine disagree on Fig. 1")
	}
}

// The budget aborts exactly when the total closure, summed over components,
// exceeds MaxTuples — what a closure of the unpartitioned outer union would
// count.
func TestPartitionedBudgetMatchesFlat(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTables(r)
		schema := IdentitySchema(tables)
		ref, err := FullDisjunction(tables, schema, Options{})
		if err != nil {
			return false
		}
		budget := ref.Stats.Closure // exactly at the limit: must succeed
		for _, opts := range []Options{{MaxTuples: budget}, {MaxTuples: budget, Workers: 4}} {
			if _, err := FullDisjunction(tables, schema, opts); err != nil {
				return false
			}
		}
		if budget > 1 {
			for _, opts := range []Options{{MaxTuples: budget - 1}, {MaxTuples: budget - 1, Workers: 4}} {
				if _, err := FullDisjunction(tables, schema, opts); !errors.Is(err, ErrTupleBudget) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
