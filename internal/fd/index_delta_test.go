package fd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// chunkedLake builds the row-chunk ingestion shape: six small tables over a
// shared entity key whose rows arrive in nChunks chunks each. Components
// merge on most updates (every chunk adds rows about existing entities),
// "wide" introduces two output columns no earlier table has, "joined"
// carries rows equal to tuples the closure derives from "names" and
// "cities", and a few rows are exact duplicates.
func chunkedLake(r *rand.Rand) []*table.Table {
	const entities = 24
	id := func(e int) table.Cell { return table.S(fmt.Sprintf("e%02d", e)) }
	name := func(e int) table.Cell { return table.S(fmt.Sprintf("name%d", e%17)) }
	city := func(e int) table.Cell { return table.S(fmt.Sprintf("city%d", e%5)) }

	names := table.New("names", "id", "name")
	cities := table.New("cities", "id", "city")
	years := table.New("years", "name", "year")
	lands := table.New("lands", "city", "land")
	joined := table.New("joined", "id", "name", "city")
	wide := table.New("wide", "id", "rank", "note")
	for e := 0; e < entities; e++ {
		names.MustAppendRow(id(e), name(e))
		cities.MustAppendRow(id(e), city(e))
		if r.Intn(3) > 0 {
			years.MustAppendRow(name(e), table.S(fmt.Sprint(1990+r.Intn(4))))
		}
		if r.Intn(2) == 0 {
			joined.MustAppendRow(id(e), name(e), city(e))
		}
		rank := table.Null()
		if r.Intn(4) > 0 {
			rank = table.S(fmt.Sprint(r.Intn(6)))
		}
		wide.MustAppendRow(id(e), rank, table.S(fmt.Sprintf("n%d", r.Intn(8))))
	}
	for c := 0; c < 5; c++ {
		lands.MustAppendRow(table.S(fmt.Sprintf("city%d", c)), table.S(fmt.Sprintf("land%d", c%2)))
	}
	tables := []*table.Table{names, cities, years, lands, joined, wide}
	for _, t := range tables {
		for k := 0; k < 3; k++ {
			t.Rows = append(t.Rows, t.Rows[r.Intn(len(t.Rows))].Clone())
		}
		r.Shuffle(len(t.Rows), func(i, j int) { t.Rows[i], t.Rows[j] = t.Rows[j], t.Rows[i] })
	}
	return tables
}

// TestIndexChunkedIngestionMatchesBatch is the property the single seeding
// path must keep, on the shape that stresses it: chunks arrive in random
// order, so components merge (small into large, several at once) on most
// updates; the schema widens mid-sequence, when the "wide" table's first
// chunk arrives; duplicate rows re-deduplicate into base and derived
// tuples. After every update — and after a budget abort followed by a
// retry — the result equals one-shot FullDisjunction, table and provenance.
func TestIndexChunkedIngestionMatchesBatch(t *testing.T) {
	const nChunks = 20
	for _, workers := range []int{1, 2} {
		for seed := int64(1); seed <= 6; seed++ {
			r := rand.New(rand.NewSource(seed))
			tables := chunkedLake(r)
			// The arrival script: table ti's next chunk, in random order,
			// with the widening table held back to the middle.
			var script []int
			for ti := range tables {
				for k := 0; k < nChunks; k++ {
					script = append(script, ti)
				}
			}
			r.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
			wideAt := len(tables) - 1
			held := script[:0:0]
			var late []int
			for i, ti := range script {
				if ti == wideAt && i < len(script)/2 {
					late = append(late, ti)
				} else {
					held = append(held, ti)
				}
			}
			script = append(held[:len(held)/2:len(held)/2], append(late, held[len(held)/2:]...)...)
			abortAt := len(script)/2 + r.Intn(len(script)/4)

			x := NewIndex()
			opts := Options{Workers: workers}
			chunks := make([]int, len(tables)) // chunks arrived per table
			var seen []int                     // tables in order of first arrival
			widened, aborted := false, false
			for step, ti := range script {
				if chunks[ti] == 0 {
					seen = append(seen, ti)
				}
				chunks[ti]++
				view := make([]*table.Table, len(seen))
				for vi, si := range seen {
					src := tables[si]
					view[vi] = table.New(src.Name, src.Columns...)
					view[vi].Rows = src.Rows[:len(src.Rows)*chunks[si]/nChunks]
				}
				schema := IdentitySchema(view)
				want, err := FullDisjunctionContext(context.Background(), view, schema, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if step >= abortAt && !aborted {
					// A budget abort mid-sequence (on the first step from here
					// that has a delta to close): the retry below must recover.
					abort := opts
					abort.MaxBytes = 1
					if _, err := x.UpdateContext(context.Background(), view, schema, abort); errors.Is(err, ErrMemoryBudget) {
						aborted = true
					} else if err != nil {
						t.Fatalf("workers %d seed %d step %d: want ErrMemoryBudget, got %v", workers, seed, step, err)
					}
				}
				got, err := x.UpdateContext(context.Background(), view, schema, opts)
				if err != nil {
					t.Fatalf("workers %d seed %d step %d: %v", workers, seed, step, err)
				}
				if !resultsIdentical(got, want) {
					t.Fatalf("workers %d seed %d step %d (table %s): incremental differs from one-shot\ngot:\n%v %v\nwant:\n%v %v",
						workers, seed, step, tables[ti].Name, got.Table, got.Prov, want.Table, want.Prov)
				}
				widened = widened || (ti == wideAt && chunks[ti] == 1 && step > 0)
			}
			if !widened || !aborted {
				t.Fatalf("seed %d: the script never widened the schema (%v) or never aborted (%v)", seed, widened, aborted)
			}
			if x.Rebuilds() != 0 {
				t.Errorf("workers %d seed %d: %d rebuilds on an append-only script", workers, seed, x.Rebuilds())
			}
		}
	}
}

// spokeHub builds one component whose closure store holds about 2n tuples:
// n rows (k, v_i) that conflict pairwise on v and all merge with the one
// row (k, w). The "small" pair forms a separate 3-tuple closure on key m,
// and "bridge" (empty at first) can tie the two together.
func spokeHub(n int) []*table.Table {
	spokes := table.New("spokes", "k", "v")
	for i := 0; i < n; i++ {
		spokes.MustAppendRow(table.S("k1"), table.S(fmt.Sprintf("v%04d", i)))
	}
	hub := table.New("hub", "k", "w")
	hub.MustAppendRow(table.S("k1"), table.S("w1"))
	small1 := table.New("small1", "m", "y")
	small1.MustAppendRow(table.S("m1"), table.S("y1"))
	small2 := table.New("small2", "m", "z")
	small2.MustAppendRow(table.S("m1"), table.S("z1"))
	bridge := table.New("bridge", "k", "v", "m")
	return []*table.Table{spokes, hub, small1, small2, bridge}
}

// grow returns the view with one more row in table ti.
func grow(view []*table.Table, ti int, cells ...table.Cell) []*table.Table {
	out := append([]*table.Table(nil), view...)
	t := table.New(view[ti].Name, view[ti].Columns...)
	t.Rows = append(append(t.Rows, view[ti].Rows...), table.Row(cells))
	out[ti] = t
	return out
}

// TestIndexUpdateProportionalToDelta guards the point of the single seeding
// path: extending a large cached closure costs what the delta costs. One
// row into a ~2 000-tuple hub, a 3-tuple component bridged into it, and
// hubMinTuples rows at once must hash or post only a small multiple of the
// delta while seeding, and the
// one-row update's allocation count must not grow with the hub — at every
// Workers setting: a cached closure is always extended in place. The first
// extension of a closure from scratch is the one that indexes in proportion
// to the store, once: it posts the derived tuples the closure left
// unextended (and, after a hub closed by pivot groups, the base tuples too),
// so one warm-up row goes in before the measurement.
func TestIndexUpdateProportionalToDelta(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			proportionalToDelta(t, Options{Workers: workers})
		})
	}
}

func proportionalToDelta(t *testing.T, opts Options) {
	const n = 1000
	view := spokeHub(n)
	schema := IdentitySchema(view)
	x := NewIndex()
	first, err := x.UpdateContext(context.Background(), view, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.LargestClose < 2*n {
		t.Fatalf("fixture hub closes to %d tuples, want >= %d", first.Stats.LargestClose, 2*n)
	}
	if opts.Workers > 1 && first.Stats.PivotGroups == 0 {
		t.Fatal("fixture: the hub was not closed by pivot groups")
	}
	view = grow(view, 0, table.S("k1"), table.S("v-warm"))
	warm, err := x.UpdateContext(context.Background(), view, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, store := warm.Stats.SeedIndexedTuples, warm.Stats.SeedReusedTuples+len(view[0].Rows)+1; got > store {
		t.Errorf("first extension: seeding posted %d tuples, more than the %d-tuple store", got, store)
	}

	check := func(label string, maxIndexed, maxAttempts int) {
		t.Helper()
		got, err := x.UpdateContext(context.Background(), view, schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := FullDisjunctionContext(context.Background(), view, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(got, want) {
			t.Fatalf("%s: incremental differs from one-shot", label)
		}
		if got.Stats.SeedReusedTuples < n {
			t.Errorf("%s: reused %d seed tuples, the hub's closure was not extended in place", label, got.Stats.SeedReusedTuples)
		}
		if got.Stats.SeedIndexedTuples > maxIndexed {
			t.Errorf("%s: seeding hashed or posted %d tuples, want <= %d", label, got.Stats.SeedIndexedTuples, maxIndexed)
		}
		if got.Stats.MergeAttempts > maxAttempts {
			t.Errorf("%s: %d merge attempts for a one-row delta (stale pivot?)", label, got.Stats.MergeAttempts)
		}
	}
	view = grow(view, 0, table.S("k1"), table.S("v-new"))
	check("one row into the hub", 2, 16)
	// The bridge row agrees with one spoke, the hub row and the small
	// component: the 3-tuple closure is appended behind the hub's.
	view = grow(view, 4, table.S("k1"), table.S("v0007"), table.S("m1"))
	check("3-tuple component bridged into the hub", 8, 256)
	// A delta past hubMinTuples is still extended in place, at any Workers.
	for k := 0; k < hubMinTuples; k++ {
		view = grow(view, 0, table.S("k1"), table.S(fmt.Sprintf("v-bulk%d", k)))
	}
	check("hubMinTuples rows into the hub", 2*hubMinTuples, 16*hubMinTuples)

	// Allocation count of a one-row update, at two hub sizes.
	allocs := func(n int) float64 {
		view := spokeHub(n)
		schema := IdentitySchema(view)
		x := NewIndex()
		if _, err := x.UpdateContext(context.Background(), view, schema, opts); err != nil {
			t.Fatal(err)
		}
		const runs = 8
		views := make([][]*table.Table, runs+1) // AllocsPerRun warms up once
		for i := range views {
			view = grow(view, 0, table.S("k1"), table.S(fmt.Sprintf("new%d", i)))
			views[i] = view
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := x.UpdateContext(context.Background(), views[i], schema, opts); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	small, large := allocs(n/8), allocs(n)
	t.Logf("allocations per one-row update: %.0f at hub %d, %.0f at hub %d", small, n/8, large, n)
	if large > small+16 {
		t.Errorf("one-row update allocates %.0f times into a %d-spoke hub, %.0f into a %d-spoke hub: it scales with the hub", large, n, small, n/8)
	}
}

// Signatures are width-stable: a tuple and the same tuple with trailing
// null cells hash alike and compare equal, so a signature index survives
// schema widening; a non-null cell in the extra columns tells them apart.
func TestWidthStableSignatures(t *testing.T) {
	narrow := []uint32{3, intern.Null, 7}
	wide := []uint32{3, intern.Null, 7, intern.Null, intern.Null}
	other := []uint32{3, intern.Null, 7, intern.Null, 9}
	if hashCells(narrow) != hashCells(wide) {
		t.Error("trailing nulls changed the signature hash")
	}
	if !equalCells(narrow, wide) || !equalCells(wide, narrow) {
		t.Error("a tuple and its widened form compare unequal")
	}
	if equalCells(narrow, other) || equalCells(other, wide) {
		t.Error("a non-null cell in the extra columns compares equal")
	}
	if equalCells([]uint32{3, 7}, []uint32{3, intern.Null, 7}) {
		t.Error("an interior null was ignored")
	}
	if !equalCells(nil, []uint32{intern.Null, intern.Null}) || hashCells(nil) != hashCells([]uint32{intern.Null}) {
		t.Error("all-null tuples of different widths differ")
	}

	// An index built at width 3 finds the widened tuple, and keeps the
	// extra-column tuple apart.
	store := []Tuple{{Cells: narrow}}
	sigs := newSigIndex(0)
	sigs.add(narrow, 0)
	if at, _, ok := sigs.find(wide, store); !ok || at != 0 {
		t.Errorf("find(widened) = %d, %v; want 0, true", at, ok)
	}
	if _, hash, ok := sigs.find(other, store); ok {
		t.Error("find matched a tuple with an extra non-null cell")
	} else {
		sigs.addHashed(hash, 1)
		store = append(store, Tuple{Cells: other})
	}
	store[0].Cells = wide // widening replaces the stored cells
	if at, _, ok := sigs.find(narrow, store); !ok || at != 0 {
		t.Errorf("after widening the store, find(narrow) = %d, %v; want 0, true", at, ok)
	}
	if at, _, ok := sigs.find(other, store); !ok || at != 1 {
		t.Errorf("find(other) = %d, %v; want 1, true", at, ok)
	}
}

// A cached posting index re-chooses its pivot once its store has doubled:
// a component first closed below pivotMinTuples (unbucketed) and grown a
// few rows at a time must end up bucketed by the column a from-scratch
// closure would pick, and Stats must describe the index actually probed.
func TestIndexRepivotsGrownComponent(t *testing.T) {
	view := spokeHub(4)
	schema := IdentitySchema(view)
	x := NewIndex()
	first, err := x.UpdateContext(context.Background(), view, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PivotColumn != -1 {
		t.Fatalf("a %d-tuple closure was bucketed by column %d", first.Stats.LargestClose, first.Stats.PivotColumn)
	}
	var last *Result
	for i := 0; i < 40; i++ {
		for k := 0; k < 3; k++ {
			view = grow(view, 0, table.S("k1"), table.S(fmt.Sprintf("n%d-%d", i, k)))
		}
		if last, err = x.UpdateContext(context.Background(), view, schema, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := FullDisjunctionContext(context.Background(), view, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(last, want) {
		t.Fatal("incremental differs from one-shot")
	}
	if want.Stats.PivotColumn < 0 {
		t.Fatal("fixture: the one-shot closure picks no pivot")
	}
	if last.Stats.PivotColumn != want.Stats.PivotColumn {
		t.Errorf("grown component probes pivot column %d, a fresh closure picks %d", last.Stats.PivotColumn, want.Stats.PivotColumn)
	}
	if last.Stats.PivotBuckets == 0 || last.Stats.PivotSkipped == 0 {
		t.Errorf("grown component's index is not bucketed: buckets %d, skipped %d", last.Stats.PivotBuckets, last.Stats.PivotSkipped)
	}
	if last.Stats.MergeAttempts > 64 {
		t.Errorf("%d merge attempts for three rows into a pivoted hub", last.Stats.MergeAttempts)
	}
}

// A closure keeps seed tuples at their seed positions, which is how the index
// finds a base tuple in a cached store: a hub closed by pivot groups, then
// touched by a duplicate row (provenance folds into a cached base entry by
// position) and extended — by one row or by hubMinTuples rows, at any
// Workers — stays identical to one-shot, and every extension is in place:
// the cached closure is reused, and past the first extension (which builds
// the indexes the group closure does not return) seeding indexes only the
// delta.
func TestIndexExtendsParallelClosedHub(t *testing.T) {
	view := spokeHub(600)
	dup := table.New("spokes2", "k", "v")
	view = append(view, dup)
	schema := IdentitySchema(view)
	x := NewIndex()
	first, err := x.UpdateContext(context.Background(), view, schema, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PivotGroups == 0 {
		t.Fatal("fixture: the hub was not closed by pivot groups")
	}
	for step, s := range []struct{ workers, rows int }{{4, 1}, {1, 1}, {4, hubMinTuples}, {4, 1}, {1, 1}} {
		view = grow(view, len(view)-1, table.S("k1"), table.S(fmt.Sprintf("v%04d", 3+step))) // duplicates a spoke
		for k := 0; k < s.rows; k++ {
			view = grow(view, 0, table.S("k1"), table.S(fmt.Sprintf("extra%d-%d", step, k)))
		}
		got, err := x.UpdateContext(context.Background(), view, schema, Options{Workers: s.workers})
		if err != nil {
			t.Fatal(err)
		}
		want, err := FullDisjunctionContext(context.Background(), view, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(got, want) {
			t.Fatalf("step %d (workers %d, %d rows): incremental differs from one-shot", step, s.workers, s.rows)
		}
		st := got.Stats
		if st.PivotGroups != 0 || st.SeedReusedTuples == 0 {
			t.Errorf("step %d (workers %d, %d rows): cached hub not extended in place: %d pivot groups, %d seed tuples reused",
				step, s.workers, s.rows, st.PivotGroups, st.SeedReusedTuples)
		}
		if step > 0 && st.SeedIndexedTuples > 2*(s.rows+1) {
			t.Errorf("step %d (workers %d, %d rows): seeding hashed or posted %d tuples for a delta of %d rows",
				step, s.workers, s.rows, st.SeedIndexedTuples, s.rows+1)
		}
	}
}
