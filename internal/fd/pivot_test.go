package fd

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// catTables builds a category-shaped integration set: every item carries
// the same "hub" category, so items (id, name, cat), item details
// (id, price), and the single category row (cat, tax) chain into one
// component — with id fully selective inside it. The shape engages the
// pivot index (unlike chainTables, whose columns are all single-valued)
// and creates buckets mid-closure: merging the category row into an item
// posts tax-column entries under a pivot value no seed tuple of that list
// had.
// The category row comes second: ingest connects only
// consistent sharing pairs, and items conflict pairwise on id, so the
// cats row is what chains them — a two-table prefix must include it for
// incremental tests to seed the hub as one cached component.
func catTables(nItems int) []*table.Table {
	items := table.New("items", "id", "name", "cat")
	details := table.New("details", "id", "price")
	for i := 0; i < nItems; i++ {
		id := fmt.Sprintf("id%04d", i)
		items.MustAppendRow(table.S(id), table.S("n-"+id), table.S("hub"))
		details.MustAppendRow(table.S(id), table.S(fmt.Sprintf("p%d", i)))
	}
	cats := table.New("cats", "cat", "tax")
	cats.MustAppendRow(table.S("hub"), table.S("std"))
	return []*table.Table{items, cats, details}
}

// catSeedSchema returns the schema of the first two catTables (items and
// the category row) — a prefix of the full identity schema, as
// incremental Updates require.
func catSeedSchema(full Schema) Schema {
	return Schema{Columns: full.Columns[:4], Mapping: full.Mapping[:2]}
}

func TestChoosePivot(t *testing.T) {
	mk := func(n int, cells func(i int) []uint32) []Tuple {
		ts := make([]Tuple, n)
		for i := range ts {
			ts[i] = Tuple{Cells: cells(i)}
		}
		return ts
	}
	// A fully selective column wins over a constant and an all-null one.
	sel := mk(64, func(i int) []uint32 { return []uint32{uint32(i + 1), 7, intern.Null} })
	if got := choosePivot(sel, 3); got != 0 {
		t.Errorf("selective column: pivot=%d, want 0", got)
	}
	// Below the store-size floor no pivot is chosen however selective.
	if got := choosePivot(sel[:pivotMinTuples-1], 3); got != -1 {
		t.Errorf("small store: pivot=%d, want -1", got)
	}
	// Every column single-valued (the chain shape): nothing to bucket by.
	flat := mk(64, func(i int) []uint32 { return []uint32{5, 7} })
	if got := choosePivot(flat, 2); got != -1 {
		t.Errorf("single-valued columns: pivot=%d, want -1", got)
	}
	// Uniformly unselective: two values cover the store, the expected scan
	// cost is half the store, so bucketing would only add overhead.
	coarse := mk(64, func(i int) []uint32 { return []uint32{uint32(1 + i%2)} })
	if got := choosePivot(coarse, 1); got != -1 {
		t.Errorf("unselective column: pivot=%d, want -1", got)
	}
}

// TestPivotedCandidatesSoundAndComplete is the pruning-soundness property
// at the index level: a pivoted probe yields a subset of the flat probe's
// candidates, and every candidate it drops conflicts with the probe tuple
// on the pivot column — i.e. could never have merged anyway.
func TestPivotedCandidatesSoundAndComplete(t *testing.T) {
	tables := catTables(40)
	eng, base := outerUnion(tables, IdentitySchema(tables))
	pivot := choosePivot(base, eng.nCols)
	if pivot < 0 {
		t.Fatal("pivot did not engage on the fixture")
	}
	flat := indexAll(base, -1)
	piv := indexAll(base, pivot)
	var seen stampSet
	collect := func(idx *postingIndex, i int) []int {
		seen.next(len(base))
		var out []int
		idx.candidates(i, base[i].Cells, &seen, func(j int) { out = append(out, j) })
		sort.Ints(out)
		return out
	}
	for i := range base {
		got := collect(piv, i)
		want := collect(flat, i)
		p := base[i].Cells[pivot]
		gi := 0
		for _, j := range want {
			if gi < len(got) && got[gi] == j {
				gi++
				continue
			}
			q := base[j].Cells[pivot]
			if p == intern.Null || q == intern.Null || q == p {
				t.Fatalf("tuple %d: pivoted probe dropped non-conflicting candidate %d", i, j)
			}
		}
		if gi != len(got) {
			t.Fatalf("tuple %d: pivoted probe yielded candidates the flat probe did not", i)
		}
	}
}

// TestPivotEnginesByteIdentical: with the pivot engaged, the sequential
// closure and the pivot-group hub closure are byte-identical — tables and
// provenance — to the unbucketed sequential closure, and each reports its
// pivot work: candidates skipped (the merged category row carries
// tax-column postings under pivot values no seed tuple of that list had),
// or groups closed.
func TestPivotEnginesByteIdentical(t *testing.T) {
	tables := catTables(300)
	schema := IdentitySchema(tables)
	ref, err := FullDisjunction(tables, schema, Options{NoPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.PivotColumn != -1 {
		t.Fatalf("NoPivot run reports pivot column %d", ref.Stats.PivotColumn)
	}
	if ref.Stats.Components != 1 {
		t.Fatalf("fixture split into %d components", ref.Stats.Components)
	}
	if ref.Stats.OuterUnion < hubMinTuples {
		t.Fatalf("fixture too small to engage intra-component parallelism: %d tuples", ref.Stats.OuterUnion)
	}
	idCol := -1
	for i, c := range schema.Columns {
		if c == "id" {
			idCol = i
		}
	}
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"seq", Options{}},
		{"steal4", Options{Workers: 4}},
		{"steal8", Options{Workers: 8}},
	} {
		t.Run(v.name, func(t *testing.T) {
			got, err := FullDisjunction(tables, schema, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Table.Equal(ref.Table) || !reflect.DeepEqual(got.Prov, ref.Prov) {
				t.Fatal("pivoted closure differs from unbucketed closure")
			}
			st := got.Stats
			if st.PivotColumn != idCol {
				t.Errorf("pivot column %d, want the id column", st.PivotColumn)
			}
			if v.opts.Workers > 1 {
				// The hub closure replaces bucketed candidate pruning with
				// disjoint per-pivot groups: nothing is skipped because
				// cross-group pairs are never enumerated.
				if st.PivotGroups == 0 {
					t.Error("hub closure reported no pivot groups")
				}
				return
			}
			if st.PivotSkipped == 0 {
				t.Error("no candidate iterations skipped")
			}
			if st.PivotBuckets == 0 {
				t.Error("no buckets reported")
			}
		})
	}
}

// TestPivotBudgetDeterministic: with the pivot engaged, whether
// ErrTupleBudget fires still depends only on the closure's final size,
// never on the schedule or on the pruned candidate order — in the
// sequential closure and across the pivot groups of a hub (the fixture is
// large enough for Workers 4 to close it by groups).
func TestPivotBudgetDeterministic(t *testing.T) {
	tables := catTables(300)
	schema := IdentitySchema(tables)
	ref, err := FullDisjunction(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.PivotColumn < 0 {
		t.Fatal("fixture must engage the pivot index")
	}
	limit := ref.Stats.Closure
	for _, workers := range []int{1, 4} {
		opts := Options{Workers: workers, MaxTuples: limit}
		got, err := FullDisjunction(tables, schema, opts)
		if err != nil {
			t.Fatalf("workers=%d: budget at the limit failed: %v", workers, err)
		}
		if grouped := got.Stats.PivotGroups > 0; grouped != (workers > 1) {
			t.Fatalf("workers=%d: closed by pivot groups = %v", workers, grouped)
		}
		opts.MaxTuples = limit - 1
		if _, err := FullDisjunction(tables, schema, opts); !errors.Is(err, ErrTupleBudget) {
			t.Fatalf("workers=%d: budget below the limit returned %v", workers, err)
		}
	}
}

// TestCancellationInsidePivotGroups: a context that dies once the hub's
// pivot groups are being closed stops every worker at its next poll and
// surfaces as ErrCanceled.
func TestCancellationInsidePivotGroups(t *testing.T) {
	tables := catTables(300)
	schema := IdentitySchema(tables)
	opts := Options{Workers: 4}
	ref, err := FullDisjunction(tables, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.PivotGroups == 0 {
		t.Fatal("fixture: the hub was not closed by pivot groups")
	}
	// The entry check and the hub's component-boundary check pass; the one
	// null-pivot tuple has nothing to expand, so the next poll is a group
	// worker's.
	ctx := newFlipCtx(2)
	if _, err := FullDisjunctionContext(ctx, tables, schema, opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if calls, limit := ctx.calls.Load(), ctx.after+2*int64(opts.Workers); calls <= ctx.after || calls > limit {
		t.Errorf("context polled %d times, want within (%d, %d]", calls, ctx.after, limit)
	}
}

// TestPivotIndexCancelAndBudgetRecover: an incremental session whose
// cached components carry pivoted posting indexes must survive both a
// cancellation and a budget abort mid-re-closure, and the retry must be
// byte-identical to the batch result — sequentially and under Workers > 1.
func TestPivotIndexCancelAndBudgetRecover(t *testing.T) {
	// Large enough that even the *pruned* re-closure of the delta (the
	// details table) performs several thousand candidate visits, so the
	// flipped context is polled well past its entry checks.
	tables := catTables(300)
	schema := IdentitySchema(tables)
	want, err := FullDisjunction(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"seq", Options{}},
		{"steal4", Options{Workers: 4}},
	} {
		t.Run(v.name, func(t *testing.T) {
			x := NewIndex()
			if _, err := x.Update(tables[:2], catSeedSchema(schema), v.opts); err != nil {
				t.Fatal(err)
			}
			ctx := newFlipCtx(3)
			if _, err := x.UpdateContext(ctx, tables, schema, v.opts); !errors.Is(err, ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			opts := v.opts
			opts.MaxTuples = want.Stats.Closure - 1
			if _, err := x.Update(tables, schema, opts); !errors.Is(err, ErrTupleBudget) {
				t.Fatalf("want ErrTupleBudget, got %v", err)
			}
			got, err := x.Update(tables, schema, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Table.Equal(want.Table) || !reflect.DeepEqual(got.Prov, want.Prov) {
				t.Error("post-abort retry differs from batch FullDisjunction")
			}
			if got.Stats.PivotColumn < 0 {
				t.Error("recovered Update closed without the pivot index")
			}
		})
	}
}

// TestIndexNoPivotOverCachedPivotedComponent: turning the pivot off for an
// Update whose dirty component carries a cached *pivoted* posting index
// must strip the buckets, reuse the flat lists, and stay byte-identical.
func TestIndexNoPivotOverCachedPivotedComponent(t *testing.T) {
	tables := catTables(60)
	schema := IdentitySchema(tables)
	x := NewIndex()
	first, err := x.Update(tables[:2], catSeedSchema(schema), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PivotColumn < 0 {
		t.Fatal("seed Update must cache a pivoted posting index")
	}
	got, err := x.Update(tables, schema, Options{NoPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.PivotColumn != -1 {
		t.Errorf("NoPivot Update reports pivot column %d", got.Stats.PivotColumn)
	}
	want, err := FullDisjunction(tables, schema, Options{NoPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Table.Equal(want.Table) || !reflect.DeepEqual(got.Prov, want.Prov) {
		t.Error("NoPivot Update over a pivoted cache differs from batch result")
	}
}
