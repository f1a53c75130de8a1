package fd_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
)

// Engine-equivalence coverage on realistic integration sets: the interned,
// component-partitioned engine (sequential and component-parallel) must be
// byte-identical — tables and provenance — to the flat reference closure
// (fd.FlatReference) on the datagen workloads, across seeds. The definitional-oracle comparison
// lives in partition_test.go (the oracle caps at 16 outer-union tuples, so
// it runs on small random sets); these tests cover the scale the oracle
// cannot.
// truncated returns the tables cut to the first k of nBatches even
// row-chunks — the accumulated view of an incremental session after its
// k-th batch.
func truncated(tables []*table.Table, nBatches, k int) []*table.Table {
	out := make([]*table.Table, len(tables))
	for ti, t := range tables {
		hi := len(t.Rows) * k / nBatches
		nt := table.New(t.Name, t.Columns...)
		nt.Rows = t.Rows[:hi]
		out[ti] = nt
	}
	return out
}

// The central incremental property on realistic sets: after every Update
// over a growing prefix of the input, the Index result is byte-identical —
// tables and provenance — to a one-shot FullDisjunction over that prefix,
// and later Updates re-close only part of the component structure.
func TestIndexIncrementalMatchesBatch(t *testing.T) {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: 1200})
	const nBatches = 4
	for _, opts := range []fd.Options{{}, fd.Options{}.Unpivoted(), {Workers: 4}} {
		x := fd.NewIndex()
		for k := 1; k <= nBatches; k++ {
			view := truncated(tables, nBatches, k)
			schema := fd.IdentitySchema(view)
			got, err := x.UpdateContext(context.Background(), view, schema, opts)
			if err != nil {
				t.Fatalf("opts %+v batch %d: %v", opts, k, err)
			}
			want, err := fd.FullDisjunctionContext(context.Background(), view, schema, opts)
			if err != nil {
				t.Fatalf("opts %+v batch %d oneshot: %v", opts, k, err)
			}
			if !got.Table.Equal(want.Table) {
				t.Fatalf("opts %+v batch %d: tables differ", opts, k)
			}
			if !reflect.DeepEqual(got.Prov, want.Prov) {
				t.Fatalf("opts %+v batch %d: provenance differs", opts, k)
			}
			if k > 1 {
				s := got.Stats
				if s.DirtyComponents >= s.Components {
					t.Errorf("opts %+v batch %d: all %d components dirty — no reuse", opts, k, s.Components)
				}
				if s.ReclosedTuples >= s.Closure {
					t.Errorf("opts %+v batch %d: reclosed %d of %d closure tuples — no reuse", opts, k, s.ReclosedTuples, s.Closure)
				}
				if s.ReusedValues == 0 {
					t.Errorf("opts %+v batch %d: no dictionary reuse on overlapping batches", opts, k)
				}
			}
		}
		if x.Rebuilds() != 0 {
			t.Errorf("opts %+v: %d rebuilds on a pure-append workload", opts, x.Rebuilds())
		}
	}
}

func TestEnginesAgreeOnDatagenSets(t *testing.T) {
	type gen struct {
		name   string
		tables func(seed int64) []*table.Table
	}
	gens := []gen{
		{"imdb", func(seed int64) []*table.Table {
			return datagen.IMDB(datagen.IMDBConfig{Seed: seed, TotalTuples: 900})
		}},
		{"embench", func(seed int64) []*table.Table {
			return datagen.EMBench(datagen.EMConfig{Seed: seed, Entities: 60}).Tables
		}},
	}
	for _, g := range gens {
		for _, seed := range []int64{1, 7, 42} {
			tables := g.tables(seed)
			schema := fd.IdentitySchema(tables)
			ref, err := fd.FlatReference(tables, schema)
			if err != nil {
				t.Fatalf("%s seed %d flat: %v", g.name, seed, err)
			}
			for _, opts := range []fd.Options{{}, fd.Options{}.Unpivoted(), {Workers: 4}, fd.Options{Workers: 4}.Unpivoted(), {Workers: 8}} {
				got, err := fd.FullDisjunctionContext(context.Background(), tables, schema, opts)
				if err != nil {
					t.Fatalf("%s seed %d opts %+v: %v", g.name, seed, opts, err)
				}
				if !got.Table.Equal(ref.Table) {
					t.Errorf("%s seed %d opts %+v: tables differ", g.name, seed, opts)
				}
				if !reflect.DeepEqual(got.Prov, ref.Prov) {
					t.Errorf("%s seed %d opts %+v: provenance differs", g.name, seed, opts)
				}
				if opts.Workers == 0 && got.Stats.Components == 0 && got.Stats.OuterUnion > 0 {
					t.Errorf("%s seed %d: engine reported no components", g.name, seed)
				}
			}
		}
	}
}

// TestPivotMatchesUnbucketedOnSkewed pins the pivot index's byte-identity
// on the workload built to stress it: the skewed catalog's dominant
// category chains most rows into one hub whose pivot is the itemID
// column, and category rows (no itemID) carry (list, pivot) pairs no seed
// tuple had. Every Workers setting must match the unbucketed closure
// exactly — tables and provenance.
func TestPivotMatchesUnbucketedOnSkewed(t *testing.T) {
	for _, seed := range []int64{3, 21} {
		tables := datagen.Skewed(datagen.SkewConfig{Seed: seed, Items: 400})
		schema := fd.IdentitySchema(tables)
		ref, err := fd.FullDisjunctionContext(context.Background(), tables, schema, fd.Options{}.Unpivoted())
		if err != nil {
			t.Fatalf("seed %d flat: %v", seed, err)
		}
		for _, opts := range []fd.Options{{}, {Workers: 4}, {Workers: 8}} {
			got, err := fd.FullDisjunctionContext(context.Background(), tables, schema, opts)
			if err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, opts, err)
			}
			if !got.Table.Equal(ref.Table) {
				t.Errorf("seed %d opts %+v: tables differ", seed, opts)
			}
			if !reflect.DeepEqual(got.Prov, ref.Prov) {
				t.Errorf("seed %d opts %+v: provenance differs", seed, opts)
			}
			st := got.Stats
			if st.PivotColumn != schemaColumn(schema, "itemID") {
				t.Errorf("seed %d opts %+v: pivot column %d, want itemID", seed, opts, st.PivotColumn)
			}
			if st.PivotSkipped == 0 {
				t.Errorf("seed %d opts %+v: pivot skipped no candidates", seed, opts)
			}
		}
	}
}

// TestIndexIncrementalPivotOnSkewed: incremental sessions over growing
// prefixes of the skewed catalog stay byte-identical to one-shot runs
// with the pivot engaged — the cached hub component's bucketed posting
// index is extended in place across Updates.
func TestIndexIncrementalPivotOnSkewed(t *testing.T) {
	tables := datagen.Skewed(datagen.SkewConfig{Seed: 5, Items: 300})
	const nBatches = 3
	for _, opts := range []fd.Options{{}, {Workers: 4}} {
		x := fd.NewIndex()
		for k := 1; k <= nBatches; k++ {
			view := truncated(tables, nBatches, k)
			schema := fd.IdentitySchema(view)
			got, err := x.UpdateContext(context.Background(), view, schema, opts)
			if err != nil {
				t.Fatalf("opts %+v batch %d: %v", opts, k, err)
			}
			want, err := fd.FullDisjunctionContext(context.Background(), view, schema, opts)
			if err != nil {
				t.Fatalf("opts %+v batch %d oneshot: %v", opts, k, err)
			}
			if !got.Table.Equal(want.Table) || !reflect.DeepEqual(got.Prov, want.Prov) {
				t.Fatalf("opts %+v batch %d: incremental differs from batch", opts, k)
			}
			if k == nBatches {
				if got.Stats.PivotColumn != schemaColumn(schema, "itemID") {
					t.Errorf("opts %+v: final Update pivot column %d, want itemID", opts, got.Stats.PivotColumn)
				}
				if got.Stats.PivotSkipped == 0 {
					t.Errorf("opts %+v: final Update skipped no candidates", opts)
				}
			}
		}
	}
}

// schemaColumn finds a named output column's index.
func schemaColumn(s fd.Schema, name string) int {
	for i, c := range s.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// writeJSONL renders a result table the way the daemon streams it.
func writeJSONL(t *testing.T, tb *table.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := table.WriteJSONL(&buf, tb); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// Byte identity on the benchmark's own shapes: the serve-durable ingestion
// pattern (IMDB 3 000 tuples as 20 row chunks x 6 tables, one Update per
// chunk, each chunk a table of its own) and the session pattern (six whole
// tables of a 5 000-tuple set, one Update per table, the schema widening
// with every one). After every Update the JSONL rendering of the table and
// the provenance equal one-shot FullDisjunction over the accumulated input.
func TestIndexByteIdenticalOnBenchmarkShapes(t *testing.T) {
	var chunks []*table.Table
	const nChunks = 20
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: 3000})
	for b := 0; b < nChunks; b++ {
		for _, tb := range tables {
			lo, hi := b*len(tb.Rows)/nChunks, (b+1)*len(tb.Rows)/nChunks
			if lo == hi {
				continue
			}
			chunk := table.New(fmt.Sprintf("%s-%d", tb.Name, b), tb.Columns...)
			chunk.Rows = tb.Rows[lo:hi]
			chunks = append(chunks, chunk)
		}
	}
	for name, script := range map[string][]*table.Table{
		"chunks": chunks,
		"whole":  datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: 5000}),
	} {
		x := fd.NewIndex()
		for k := 1; k <= len(script); k++ {
			view := script[:k]
			schema := fd.IdentitySchema(view)
			got, err := x.UpdateContext(context.Background(), view, schema, fd.Options{})
			if err != nil {
				t.Fatalf("%s update %d: %v", name, k, err)
			}
			want, err := fd.FullDisjunctionContext(context.Background(), view, schema, fd.Options{})
			if err != nil {
				t.Fatalf("%s update %d oneshot: %v", name, k, err)
			}
			if writeJSONL(t, got.Table) != writeJSONL(t, want.Table) {
				t.Fatalf("%s update %d: JSONL output differs from one-shot", name, k)
			}
			if !reflect.DeepEqual(got.Prov, want.Prov) {
				t.Fatalf("%s update %d: provenance differs from one-shot", name, k)
			}
		}
		if x.Rebuilds() != 0 {
			t.Errorf("%s: %d rebuilds on an append-only script", name, x.Rebuilds())
		}
	}
}
