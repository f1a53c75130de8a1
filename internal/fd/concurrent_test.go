package fd

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Equivalence of the work-stealing engine with the sequential one on random
// integration sets, across shard counts (including the degenerate single
// shard) and worker counts, for both the partitioned and flat paths. Runs
// under -race in CI, so this doubles as the engine's race coverage.
func TestConcurrentClosureMatchesSequentialRandom(t *testing.T) {
	variants := []Options{
		{Workers: 2},
		{Workers: 4, Shards: 1},
		{Workers: 4, Shards: 64},
		{Workers: 8},
		{NoPartition: true, Workers: 4},
	}
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

// The incremental index over the concurrent engine: updates stay
// byte-identical to one-shot runs when hub components are re-closed by the
// work-stealing engine (which returns a store without indexes, so this
// also exercises rebuilding them when the store is next extended).
func TestIndexIncrementalConcurrentRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := randomTablesWithEmptyRows(r)
		nBatches := 1 + r.Intn(3)
		x := NewIndex()
		for k := 1; k <= nBatches; k++ {
			view := accumulate(tables, nBatches, k)
			schema := IdentitySchema(view)
			got, err := x.Update(view, schema, Options{Workers: 4})
			if err != nil {
				return false
			}
			want, err := FullDisjunction(view, schema, Options{})
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

func TestResolveShards(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want int
	}{
		{Options{Workers: 2}, 16},    // floor
		{Options{Workers: 8}, 64},    // 8 per worker
		{Options{Workers: 100}, 512}, // autotune cap, rounded up to a power of two
		{Options{Workers: 4, Shards: 1}, 1},
		{Options{Workers: 4, Shards: 3}, 4},   // round up
		{Options{Workers: 4, Shards: 64}, 64}, // power of two passes through
		{Options{Workers: 4, Shards: 5000}, 1024},
	} {
		if got := resolveShards(tc.opts); got != tc.want {
			t.Errorf("resolveShards(%+v) = %d, want %d", tc.opts, got, tc.want)
		}
	}
}

func TestConcDequeStealHalf(t *testing.T) {
	var d, dst concDeque
	for i := 0; i < 7; i++ {
		d.push(i)
	}
	if !d.stealHalf(&dst) {
		t.Fatal("steal from non-empty deque failed")
	}
	// The thief takes the older half (head), the victim keeps the rest.
	if got := len(dst.items); got != 4 {
		t.Fatalf("stole %d items, want 4", got)
	}
	var all []int
	all = append(all, dst.items...)
	all = append(all, d.items...)
	sort.Ints(all)
	if !reflect.DeepEqual(all, []int{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatalf("items lost or duplicated across steal: %v", all)
	}
	var empty concDeque
	if empty.stealHalf(&dst) {
		t.Error("steal from empty deque reported success")
	}
}

func TestPostingListConcurrentAppendIterate(t *testing.T) {
	// Chunk-chain integrity over several chunk boundaries.
	var pl postingList
	const n = plChunkSize*3 + 5
	for i := 0; i < n; i++ {
		pl.append(i)
	}
	var got []int
	pl.each(func(id int) bool { got = append(got, id); return true })
	if len(got) != n {
		t.Fatalf("iterated %d of %d items", len(got), n)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("item %d = %d, want %d (append order broken)", i, id, i)
		}
	}
	// Early exit stops the walk.
	count := 0
	pl.each(func(int) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early exit iterated %d items, want 3", count)
	}
}

// The concurrent engine engages inside a hub component and reports its
// shard count; the sequential engine reports none.
func TestStatsShardsReported(t *testing.T) {
	tables := chainTables(40)
	schema := IdentitySchema(tables)
	seq, err := FullDisjunction(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.Shards != 0 {
		t.Errorf("sequential run reported Shards=%d", seq.Stats.Shards)
	}
	par, err := FullDisjunction(tables, schema, Options{Workers: 4, Shards: 32})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Shards != 32 {
		t.Errorf("concurrent run reported Shards=%d, want 32", par.Stats.Shards)
	}
	if !resultsIdentical(par, seq) {
		t.Error("concurrent hub closure differs from sequential")
	}
	round, err := FullDisjunction(tables, schema, Options{Workers: 4, RoundParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if round.Stats.Shards != 0 {
		t.Errorf("round-parallel ablation reported Shards=%d", round.Stats.Shards)
	}
	if !resultsIdentical(round, seq) {
		t.Error("round-parallel hub closure differs from sequential")
	}
}

// A canceled concurrent closure must not leak goroutines or deadlock: the
// workers drain promptly and the error surfaces as ErrCanceled.
func TestConcurrentClosureCancel(t *testing.T) {
	tables := chainTables(60)
	schema := IdentitySchema(tables)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FullDisjunctionContext(ctx, tables, schema, Options{Workers: 4}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}
