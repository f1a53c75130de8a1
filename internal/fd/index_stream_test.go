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

// rowKey renders a row for order-insensitive comparison.
func rowKey(row table.Row) string {
	s := ""
	for _, c := range row {
		if c.IsNull {
			s += "\x00⊥"
		} else {
			s += "\x00" + c.Val
		}
	}
	return s
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

// TestStreamMatchesBatch: a fresh index streams FullDisjunction's rows and
// provenance, up to row order, sequentially and with workers. Sequentially
// the order itself is fixed — components by smallest base tuple, rows in
// value order — so two runs emit the same sequence.
func TestStreamMatchesBatch(t *testing.T) {
	for _, tables := range [][]*table.Table{fig1Tables(), fig1Fuzzy(), chainTables(12)} {
		schema := IdentitySchema(tables)
		want, err := FullDisjunction(tables, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seqRows, seqProvs, stats, err := indexStreamAll(NewIndex(), tables, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lineSet(seqRows, seqProvs), lineSet(want.Table.Rows, want.Prov)) {
			t.Fatalf("stream differs from batch:\ngot %v\nwant %v", lineSet(seqRows, seqProvs), lineSet(want.Table.Rows, want.Prov))
		}
		if stats.Output != len(seqRows) || stats.Closure == 0 || stats.Subsumed != want.Stats.Subsumed {
			t.Errorf("stream stats %+v, batch Subsumed=%d", stats, want.Stats.Subsumed)
		}
		againRows, againProvs, _, err := indexStreamAll(NewIndex(), tables, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(againRows, seqRows) || !reflect.DeepEqual(againProvs, seqProvs) {
			t.Error("two sequential streams emitted different orders")
		}
		parRows, parProvs, _, err := indexStreamAll(NewIndex(), tables, schema, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lineSet(parRows, parProvs), lineSet(seqRows, seqProvs)) {
			t.Error("parallel stream multiset differs from sequential")
		}
	}
}

// TestStreamAllNullRow: a fully-empty input row's all-null tuple is
// dropped from the stream when other rows exist — the documented
// divergence from the batch fold — but the row count and the Subsumed
// count still match the batch result.
func TestStreamAllNullRow(t *testing.T) {
	tables := fig1Tables()
	tables[0].MustAppendRow(table.Null(), table.Null())
	schema := IdentitySchema(tables)
	want, err := FullDisjunction(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, stats, err := indexStreamAll(NewIndex(), tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != want.Table.NumRows() {
		t.Fatalf("stream emitted %d rows, batch has %d", len(rows), want.Table.NumRows())
	}
	for _, row := range rows {
		hasValue := false
		for _, c := range row {
			hasValue = hasValue || !c.IsNull
		}
		if !hasValue {
			t.Fatal("all-null row leaked into the stream")
		}
	}
	if stats.Subsumed != want.Stats.Subsumed {
		t.Errorf("stream Subsumed=%d, batch %d", stats.Subsumed, want.Stats.Subsumed)
	}
}

// TestStreamEmitsBeforeCompletion: rows of already-closed components are
// delivered while later components remain unclosed — cancel from inside
// emit and keep the prefix — and a later Update recovers the full result.
func TestStreamEmitsBeforeCompletion(t *testing.T) {
	// Several independent two-tuple components, plus distinct singleton
	// values per table so identity alignment yields separate components.
	var tables []*table.Table
	for i := 0; i < 6; i++ {
		a := table.New(fmt.Sprintf("A%d", i), "k", fmt.Sprintf("x%d", i))
		a.MustAppendRow(table.S(fmt.Sprintf("k%d", i)), table.S("l"))
		b := table.New(fmt.Sprintf("B%d", i), "k", fmt.Sprintf("y%d", i))
		b.MustAppendRow(table.S(fmt.Sprintf("k%d", i)), table.S("r"))
		tables = append(tables, a, b)
	}
	schema := IdentitySchema(tables)

	x := NewIndex()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got int
	_, err := x.StreamContext(ctx, tables, schema, Options{}, func(row table.Row, prov []TID) error {
		got++
		if got == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled after mid-stream cancel, got %v", err)
	}
	if got < 2 {
		t.Fatalf("expected at least 2 rows before cancellation, got %d", got)
	}
	full, err := FullDisjunction(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got >= full.Table.NumRows() {
		t.Fatalf("cancellation emitted all %d rows; wanted a partial prefix", got)
	}
	again, err := x.Update(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(again, full) {
		t.Fatal("Update after a canceled stream differs from the batch result")
	}
}

// TestStreamProgress: per-component progress events arrive in completion
// order with a stable total, and each fires after its component's rows are
// emitted — a consumer may flush on it: at the last event every row is out.
func TestStreamProgress(t *testing.T) {
	for _, tables := range [][]*table.Table{fig1Tables(), chainTables(12)} {
		for _, workers := range []int{0, 4} {
			var events []ComponentProgress
			emitted, atLast := 0, -1
			opts := Options{Workers: workers, Progress: func(p ComponentProgress) {
				events = append(events, p)
				if p.Done == p.Total {
					atLast = emitted
				}
			}}
			if _, err := NewIndex().StreamContext(context.Background(), tables, IdentitySchema(tables), opts, func(table.Row, []TID) error {
				emitted++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("no progress events")
			}
			if !sort.SliceIsSorted(events, func(a, b int) bool { return events[a].Done < events[b].Done }) {
				t.Errorf("progress Done counts not monotonic: %+v", events)
			}
			last := events[len(events)-1]
			if last.Done != last.Total || last.Total != len(events) {
				t.Errorf("progress did not cover all components: %+v", events)
			}
			if atLast != emitted {
				t.Errorf("workers=%d: %d of %d rows emitted at the last progress event", workers, atLast, emitted)
			}
		}
	}
}
