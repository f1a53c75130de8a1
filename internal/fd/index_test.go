package fd

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"fuzzyfd/internal/table"
)

// accumulate returns the tables truncated to the first k of nBatches
// row-chunks — the accumulated view after feeding batch k of an
// even row split.
func accumulate(tables []*table.Table, nBatches, k int) []*table.Table {
	out := make([]*table.Table, len(tables))
	for ti, t := range tables {
		hi := len(t.Rows) * k / nBatches
		nt := table.New(t.Name, t.Columns...)
		nt.Rows = t.Rows[:hi]
		out[ti] = nt
	}
	return out
}

// Randomized equivalence against a fresh index (FullDisjunction, itself
// checked against FlatReference and NaiveFD), including fully-null
// rows, random batch splits, and re-deduplicated rows (duplicates arriving
// in later batches must dirty — and fold into — the owning component).
func TestIndexIncrementalMatchesBatchRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTablesWithEmptyRows(r)
		// Duplicate some rows so later batches re-dedup into earlier ones.
		for _, tb := range tables {
			if len(tb.Rows) > 0 && r.Intn(2) == 0 {
				tb.Rows = append(tb.Rows, tb.Rows[r.Intn(len(tb.Rows))].Clone())
			}
		}
		nBatches := 1 + r.Intn(4)
		x := NewIndex()
		for k := 1; k <= nBatches; k++ {
			view := accumulate(tables, nBatches, k)
			schema := IdentitySchema(view)
			got, err := x.UpdateContext(context.Background(), view, schema, Options{})
			if err != nil {
				t.Logf("seed %d batch %d: %v", seed, k, err)
				return false
			}
			want, err := FullDisjunctionContext(context.Background(), view, schema, Options{})
			if err != nil {
				return false
			}
			if !resultsIdentical(got, want) {
				t.Logf("seed %d batch %d/%d:\ninput:\n%v\ngot:\n%v %v\nwant:\n%v %v",
					seed, k, nBatches, view, got.Table, got.Prov, want.Table, want.Prov)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// New tables appearing in later updates may append output columns; the
// index must widen its store rather than rebuild, stay equivalent, and keep
// the cached closures it widened: the component the widening table touches
// is extended in place (its derived tuple reused, only the new row hashed
// and posted), not relayed, and every clean component is widened too — a
// merged one included.
func TestIndexSchemaWidening(t *testing.T) {
	t1 := table.New("t1", "k", "a")
	t1.MustAppendRow(table.S("k1"), table.S("x"))
	t1.MustAppendRow(table.S("k2"), table.S("y"))
	t2 := table.New("t2", "k", "b")
	t2.MustAppendRow(table.S("k1"), table.S("p"))
	// The first two rows form a two-member component; the third bridges it
	// to the one holding t1's k2 row, an earlier and so smaller member, and
	// the larger component absorbs it. The widening Update leaves the merged
	// component clean.
	tm := table.New("tm", "k", "a", "b")
	tm.MustAppendRow(table.Null(), table.S("z"), table.S("w"))
	tm.MustAppendRow(table.S("k9"), table.Null(), table.S("w"))
	tm.MustAppendRow(table.S("k2"), table.Null(), table.S("w"))
	t3 := table.New("t3", "k", "c", "d")
	t3.MustAppendRow(table.S("k1"), table.S("q"), table.S("r"))
	t3.MustAppendRow(table.S("k3"), table.Null(), table.S("s"))

	all := []*table.Table{t1, t2, tm, t3}
	x := NewIndex()
	for k := 1; k <= len(all); k++ {
		view := all[:k]
		schema := IdentitySchema(view)
		got, err := x.UpdateContext(context.Background(), view, schema, Options{})
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		want, err := FullDisjunctionContext(context.Background(), view, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(got, want) {
			t.Fatalf("step %d: got\n%v %v\nwant\n%v %v", k, got.Table, got.Prov, want.Table, want.Prov)
		}
		if k == len(all) {
			// t3 widens the schema by two columns and its first row joins the
			// k1 component, whose closure (two base tuples, one derived) was
			// cached with its indexes at width 3.
			if got.Stats.SeedReusedTuples != 1 {
				t.Errorf("widened component reused %d derived tuples, want 1", got.Stats.SeedReusedTuples)
			}
			if got.Stats.SeedIndexedTuples != 1 {
				t.Errorf("seeding hashed or posted %d tuples, want only the new row: the widened cache was relayed", got.Stats.SeedIndexedTuples)
			}
			// Base tuple 1 is t1's k2 row; tm's pair (3, 4) absorbed it.
			if c := x.compOf[1]; len(c.members) != 4 || c.members[0] != 3 || c.first != 1 || got.Stats.DirtyComponents != 2 {
				t.Errorf("merged component members %v first %d, %d dirty components: want [3 4 1 5], 1, 2", c.members, c.first, got.Stats.DirtyComponents)
			}
		}
	}
	if x.Rebuilds() != 0 {
		t.Errorf("widening forced %d rebuilds", x.Rebuilds())
	}
}

// When a previously ingested row no longer projects to its recorded tuple
// (the session's value-matching layer rewrote it), Update must detect the
// drift, rebuild, and still produce the one-shot result. The dictionary
// survives the rebuild.
func TestIndexRebuildOnRewriteDrift(t *testing.T) {
	t1 := table.New("t1", "k", "a")
	t1.MustAppendRow(table.S("k1"), table.S("x"))
	t2 := table.New("t2", "k", "b")
	t2.MustAppendRow(table.S("k1"), table.S("y"))

	x := NewIndex()
	view := []*table.Table{t1, t2}
	if _, err := x.UpdateContext(context.Background(), view, IdentitySchema(view), Options{}); err != nil {
		t.Fatal(err)
	}
	valuesBefore := x.Values()

	// A matching round elects a new representative for k1.
	t1b := table.New("t1", "k", "a")
	t1b.MustAppendRow(table.S("K-1"), table.S("x"))
	t2b := table.New("t2", "k", "b")
	t2b.MustAppendRow(table.S("K-1"), table.S("y"))
	view = []*table.Table{t1b, t2b}
	got, err := x.UpdateContext(context.Background(), view, IdentitySchema(view), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := FullDisjunctionContext(context.Background(), view, IdentitySchema(view), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(got, want) {
		t.Fatalf("post-drift result differs:\ngot %v\nwant %v", got.Table, want.Table)
	}
	if x.Rebuilds() != 1 {
		t.Errorf("Rebuilds=%d want 1", x.Rebuilds())
	}
	if x.Values() <= valuesBefore {
		t.Errorf("dictionary shrank across rebuild: %d -> %d", valuesBefore, x.Values())
	}
	if got.Stats.ReusedValues == 0 {
		t.Error("rebuild re-interned every value — dictionary not persistent")
	}
}

// A budget-aborted Update must not poison the index: ingest has already
// advanced the store (including provenance merged into existing tuples),
// so reusing the pre-abort component cache on a later successful Update
// would silently drop that provenance. The failed Update drops the store;
// the retry must equal the one-shot result exactly.
func TestIndexBudgetAbortThenRetry(t *testing.T) {
	t1 := table.New("t1", "a", "b", "c")
	t1.MustAppendRow(table.S("x"), table.S("1"), table.Null())
	t1.MustAppendRow(table.S("x"), table.Null(), table.S("2"))
	x := NewIndex()
	view := []*table.Table{t1}
	first, err := x.UpdateContext(context.Background(), view, IdentitySchema(view), Options{MaxBytes: unbounded})
	if err != nil {
		t.Fatal(err)
	}

	// Batch 2: a duplicate of t1's first row (merges provenance into an
	// existing tuple) plus fresh rows that blow a budget batch 1 fits in.
	t2 := table.New("t2", "a", "b", "c")
	t2.MustAppendRow(table.S("x"), table.S("1"), table.Null())
	t2.MustAppendRow(table.S("y"), table.S("3"), table.Null())
	t2.MustAppendRow(table.S("y"), table.Null(), table.S("4"))
	view = []*table.Table{t1, t2}
	schema := IdentitySchema(view)
	if _, err := x.UpdateContext(context.Background(), view, schema, Options{MaxBytes: first.Stats.MemoryBytes}); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}

	got, err := x.UpdateContext(context.Background(), view, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := FullDisjunctionContext(context.Background(), view, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(got, want) {
		t.Fatalf("post-abort retry differs from one-shot:\ngot  %v %v\nwant %v %v",
			got.Table, got.Prov, want.Table, want.Prov)
	}
}

// Incremental re-closure: when a dirty component is re-closed, its
// previous closure seeds the store — SeedReusedTuples counts the derived
// tuples that were not re-derived — and only pairs involving a new or
// changed tuple are expanded, so merge attempts stay well below a
// from-scratch re-closure while the result is byte-identical to one-shot.
func TestIndexSeedReuse(t *testing.T) {
	// A growing chain keeps one hub component dirty on every update — the
	// row-extension shape that previously forced full re-closure.
	x := NewIndex()
	var lastSeed, lastAttempts int
	for _, n := range []int{20, 30, 40} {
		tables := chainTables(n)
		schema := IdentitySchema(tables)
		got, err := x.UpdateContext(context.Background(), tables, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := FullDisjunctionContext(context.Background(), tables, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(got, want) {
			t.Fatalf("n=%d: seeded re-closure differs from one-shot", n)
		}
		lastSeed = got.Stats.SeedReusedTuples
		lastAttempts = got.Stats.MergeAttempts
		if n > 20 {
			if lastSeed == 0 {
				t.Errorf("n=%d: no closure tuples reused as seeds", n)
			}
			if ref, _ := FullDisjunctionContext(context.Background(), tables, schema, Options{}); lastAttempts >= ref.Stats.MergeAttempts {
				t.Errorf("n=%d: seeded update attempted %d merges, one-shot needs only %d — no incremental saving",
					n, lastAttempts, ref.Stats.MergeAttempts)
			}
		}
	}
	// The final update re-derived only the chain intervals touching new
	// tuples: closure grew 465 -> 820, and at least the previous closure's
	// derived tuples (465 - 39 bases... conservatively, most of them) were
	// seeded rather than re-derived.
	if lastSeed < 300 {
		t.Errorf("final update reused only %d seed tuples", lastSeed)
	}
}

// The memory budget bounds the whole closure's estimate across incremental
// updates: an index that has accumulated state must still abort when the
// accumulated closure's estimate exceeds MaxBytes.
func TestIndexBudget(t *testing.T) {
	tables := fig1Fuzzy()
	schema := IdentitySchema(tables)
	limit := closureBytes(t, tables, schema)
	x := NewIndex()
	if _, err := x.UpdateContext(context.Background(), tables[:1], IdentitySchema(tables[:1]), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := x.UpdateContext(context.Background(), tables, schema, Options{MaxBytes: limit}); err != nil {
		t.Fatalf("budget at the limit must pass: %v", err)
	}
	y := NewIndex()
	if _, err := y.UpdateContext(context.Background(), tables[:1], IdentitySchema(tables[:1]), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := y.UpdateContext(context.Background(), tables, schema, Options{MaxBytes: limit - 1}); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("budget below the limit: want ErrMemoryBudget, got %v", err)
	}
}

// The incremental index under Workers > 1: updates stay byte-identical to
// one-shot runs on random sets with fully-null rows.
func TestIndexIncrementalConcurrentRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTablesWithEmptyRows(r)
		nBatches := 1 + r.Intn(3)
		x := NewIndex()
		for k := 1; k <= nBatches; k++ {
			view := accumulate(tables, nBatches, k)
			schema := IdentitySchema(view)
			got, err := x.UpdateContext(context.Background(), view, schema, Options{Workers: 4})
			if err != nil {
				return false
			}
			want, err := FullDisjunctionContext(context.Background(), view, schema, Options{})
			if err != nil {
				return false
			}
			if !resultsIdentical(got, want) {
				t.Logf("seed %d batch %d/%d: incremental concurrent differs", seed, k, nBatches)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Incremental Updates fold a fully-empty input row's all-null tuple into the
// global subsumer's provenance exactly as the definitional oracle does, at
// every batch of a random split, sequentially and with workers.
func TestIndexAllNullFoldMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTablesWithEmptyRows(r)
		nBatches := 1 + r.Intn(3)
		for _, opts := range []Options{{}, {Workers: 4}} {
			x := NewIndex()
			for k := 1; k <= nBatches; k++ {
				view := accumulate(tables, nBatches, k)
				schema := IdentitySchema(view)
				want, err := NaiveFD(view, schema)
				if errors.Is(err, ErrOracleTooLarge) {
					return true // skip oversized draws
				}
				if err != nil {
					return false
				}
				got, err := x.UpdateContext(context.Background(), view, schema, opts)
				if err != nil {
					t.Logf("seed %d batch %d: %v", seed, k, err)
					return false
				}
				if !resultsIdentical(got, want) {
					t.Logf("seed %d batch %d/%d opts %+v:\ninput:\n%v\ngot:\n%v %v\nwant:\n%v %v",
						seed, k, nBatches, opts, view, got.Table, got.Prov, want.Table, want.Prov)
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

// Per-component progress of an Update is monotonic and covers every
// component the Update closes, one-shot and after a delta, sequentially and
// with workers.
func TestIndexUpdateProgress(t *testing.T) {
	for _, tables := range [][]*table.Table{fig1Tables(), chainTables(12)} {
		for _, workers := range []int{0, 4} {
			x := NewIndex()
			for k := 1; k <= 2; k++ {
				var events []ComponentProgress
				opts := Options{Workers: workers, Progress: func(p ComponentProgress) { events = append(events, p) }}
				view := tables[:len(tables)*k/2]
				res, err := x.UpdateContext(context.Background(), view, IdentitySchema(view), opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(events) == 0 || len(events) != res.Stats.DirtyComponents {
					t.Fatalf("workers=%d update %d: %d progress events for %d dirty components",
						workers, k, len(events), res.Stats.DirtyComponents)
				}
				for i, p := range events {
					if p.Done != i+1 || p.Total != len(events) {
						t.Errorf("workers=%d update %d: event %d is %+v, want Done %d of %d",
							workers, k, i, p, i+1, len(events))
					}
				}
			}
		}
	}
}
