package fd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"fuzzyfd/internal/table"
)

// indexStreamAll drains Index.StreamContext into row/prov slices.
func indexStreamAll(x *Index, tables []*table.Table, schema Schema, opts Options) ([]table.Row, [][]TID, Stats, error) {
	var rows []table.Row
	var provs [][]TID
	stats, err := x.StreamContext(context.Background(), tables, schema, opts, func(row table.Row, prov []TID) error {
		rows = append(rows, row)
		provs = append(provs, prov)
		return nil
	})
	return rows, provs, stats, err
}

// lineSet renders rows with provenance as a sorted multiset of lines for
// order-insensitive comparison.
func lineSet(rows []table.Row, provs [][]TID) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = rowKey(row) + "|" + fmt.Sprint(provs[i])
	}
	sort.Strings(out)
	return out
}

// TestIndexStreamMatchesBatchRandom: streaming an index update emits the
// batch result's row-and-provenance multiset at every accumulated view —
// dirty components live, clean components replayed from cache. (Inputs
// without fully-empty rows: those diverge on the all-null fold, covered by
// TestIndexStreamAllNullRow.)
func TestIndexStreamMatchesBatchRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTables(r)
		for _, tb := range tables {
			informative := tb.Rows[:0]
			for _, row := range tb.Rows {
				for _, c := range row {
					if !c.IsNull {
						informative = append(informative, row)
						break
					}
				}
			}
			tb.Rows = informative
		}
		nBatches := 1 + r.Intn(4)
		x := NewIndex()
		for k := 1; k <= nBatches; k++ {
			view := accumulate(tables, nBatches, k)
			schema := IdentitySchema(view)
			rows, provs, stats, err := indexStreamAll(x, view, schema, Options{})
			if err != nil {
				t.Logf("seed %d batch %d: %v", seed, k, err)
				return false
			}
			want, err := FullDisjunction(view, schema, Options{})
			if err != nil {
				return false
			}
			wantProvs := want.Prov
			if !reflect.DeepEqual(lineSet(rows, provs), lineSet(want.Table.Rows, wantProvs)) {
				t.Logf("seed %d batch %d/%d:\ninput:\n%v\nstreamed:\n%v\nwant:\n%v",
					seed, k, nBatches, view, lineSet(rows, provs), lineSet(want.Table.Rows, wantProvs))
				return false
			}
			if stats.Output != len(rows) {
				t.Logf("seed %d batch %d: stats.Output=%d, emitted %d", seed, k, stats.Output, len(rows))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestIndexStreamDelta: a second stream after a small delta re-closes only
// the touched components yet still emits the full multiset — the clean
// remainder replays from the cache.
func TestIndexStreamDelta(t *testing.T) {
	tables := chainTables(12)
	schema := IdentitySchema(tables)
	x := NewIndex()
	if _, _, _, err := indexStreamAll(x, tables, schema, Options{}); err != nil {
		t.Fatal(err)
	}

	// Touch one component: append a row re-using an existing join value of
	// the first table.
	grown := make([]*table.Table, len(tables))
	copy(grown, tables)
	t0 := table.New(tables[0].Name, tables[0].Columns...)
	t0.Rows = append(t0.Rows, tables[0].Rows...)
	t0.MustAppendRow(tables[0].Rows[0][0], table.S("fresh"))
	grown[0] = t0
	schema = IdentitySchema(grown)

	rows, provs, stats, err := indexStreamAll(x, grown, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := FullDisjunction(grown, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lineSet(rows, provs), lineSet(want.Table.Rows, want.Prov)) {
		t.Fatalf("delta stream multiset differs from batch:\ngot %v\nwant %v",
			lineSet(rows, provs), lineSet(want.Table.Rows, want.Prov))
	}
	if stats.Components == 0 || stats.DirtyComponents >= stats.Components {
		t.Errorf("expected a partial re-closure, got dirty=%d of %d components",
			stats.DirtyComponents, stats.Components)
	}
	if stats.ReclosedTuples >= stats.Closure {
		t.Errorf("expected replay to skip closure work: reclosed=%d closure=%d",
			stats.ReclosedTuples, stats.Closure)
	}
}

// TestIndexStreamParallelMultiset: worker counts change delivery order but
// never the multiset.
func TestIndexStreamParallelMultiset(t *testing.T) {
	tables := chainTables(16)
	schema := IdentitySchema(tables)
	seqRows, seqProvs, _, err := indexStreamAll(NewIndex(), tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parRows, parProvs, _, err := indexStreamAll(NewIndex(), tables, schema, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lineSet(seqRows, seqProvs), lineSet(parRows, parProvs)) {
		t.Fatal("parallel stream multiset differs from sequential")
	}
}

// TestIndexStreamEmitError: an emit failure aborts the stream with the
// sink's error, and the index stays consistent for a later update.
func TestIndexStreamEmitError(t *testing.T) {
	tables := fig1Tables()
	schema := IdentitySchema(tables)
	x := NewIndex()
	boom := errors.New("sink failed")
	_, err := x.StreamContext(context.Background(), tables, schema, Options{}, func(table.Row, []TID) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want sink error, got %v", err)
	}
	got, err := x.Update(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := FullDisjunction(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(got, want) {
		t.Fatal("index inconsistent after aborted stream")
	}
}

// TestIndexStreamAllNullRow: fully-empty input rows never leak an all-null
// output row into the stream, and the row-cell multiset still matches the
// batch result (whose fold only moves provenance) — the same documented
// divergence as the one-shot Stream.
func TestIndexStreamAllNullRow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTablesWithEmptyRows(r)
		schema := IdentitySchema(tables)
		rows, _, _, err := indexStreamAll(NewIndex(), tables, schema, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want, err := FullDisjunction(tables, schema, Options{})
		if err != nil {
			return false
		}
		got := make([]string, len(rows))
		for i, row := range rows {
			informative := false
			for _, c := range row {
				informative = informative || !c.IsNull
			}
			if len(rows) > 1 && !informative {
				t.Logf("seed %d: all-null row leaked into the stream", seed)
				return false
			}
			got[i] = rowKey(row)
		}
		exp := make([]string, len(want.Table.Rows))
		for i, row := range want.Table.Rows {
			exp[i] = rowKey(row)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if !reflect.DeepEqual(got, exp) {
			t.Logf("seed %d:\ninput:\n%v\nstreamed:\n%v\nwant:\n%v", seed, tables, got, exp)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
