package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
)

// rowMultiset counts rows by value.
func rowMultiset(rows []table.Row) map[string]int {
	m := make(map[string]int, len(rows))
	for _, row := range rows {
		m[rowString(row)]++
	}
	return m
}

// streamMultiset streams the session's integration and counts the rows.
func streamMultiset(ctx context.Context, s *Session) (map[string]int, *Result, error) {
	got := make(map[string]int)
	res, err := s.StreamContext(ctx, func(_ fd.Schema, row table.Row, _ []fd.TID) error {
		got[rowString(row)]++
		return nil
	})
	return got, res, err
}

// streamAll drains the session's stream into rows and provenance, in order.
func streamAll(ctx context.Context, s *Session) ([]table.Row, [][]fd.TID, error) {
	var rows []table.Row
	var provs [][]fd.TID
	_, err := s.StreamContext(ctx, func(_ fd.Schema, row table.Row, prov []fd.TID) error {
		rows = append(rows, row)
		provs = append(provs, prov)
		return nil
	})
	return rows, provs, err
}

// TestSessionRewriteDriftMatchesOneShot feeds sessions EMBench tables in
// shuffled row chunks. Under the fuzzy method value-matching rounds keep
// electing different representatives, so the FD index keeps re-verifying
// and rebuilding its store; under the equi method new columns keep
// widening it. After every chunk the session's Integrate must be
// byte-identical to the one-shot pipeline over the chunks so far, and its
// stream must be the same rows and provenance in the same order. Every
// Result the session published must still equal a deep copy taken when it
// was returned, after all later chunks: published generations are never
// written to.
func TestSessionRewriteDriftMatchesOneShot(t *testing.T) {
	ctx := context.Background()
	names := []string{"equi", embed.FastText, embed.Mistral}
	cfgs := map[string]Config{"equi": {Method: MethodEquiFD}}
	for _, tier := range names[1:] {
		model, err := embed.New(tier)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[tier] = Config{Embedder: model}
	}
	for _, name := range names {
		cfg := cfgs[name]
		for seed := int64(1); seed <= 3; seed++ {
			bench := datagen.EMBench(datagen.EMConfig{Seed: seed, Entities: 60})
			var chunks []*table.Table
			for _, tb := range bench.Tables {
				n := len(tb.Rows)
				for c := 0; c < 3; c++ {
					part := table.New(fmt.Sprintf("%s.%d", tb.Name, c), tb.Columns...)
					part.Rows = slices.Clone(tb.Rows[c*n/3 : (c+1)*n/3])
					chunks = append(chunks, part)
				}
			}
			rand.New(rand.NewSource(seed)).Shuffle(len(chunks), func(i, j int) {
				chunks[i], chunks[j] = chunks[j], chunks[i]
			})

			s := NewSession(cfg)
			rewrites, widenings := 0, 0
			var published []*Result
			var copies []*fd.Result
			for k, chunk := range chunks {
				s.Add(chunk)
				got, err := s.IntegrateContext(ctx)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Integrate(chunks[:k+1], cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Table.Equal(want.Table) || !reflect.DeepEqual(got.Prov, want.Prov) {
					t.Fatalf("%s seed %d chunk %d: session differs from the one-shot pipeline", name, seed, k+1)
				}
				rows, provs, err := streamAll(ctx, s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rows, want.Table.Rows) || !reflect.DeepEqual(provs, want.Prov) {
					t.Fatalf("%s seed %d chunk %d: stream differs from Integrate", name, seed, k+1)
				}
				rewrites += got.MatchStats.Rewrites
				if k > 0 && len(got.Schema.Columns) > len(published[k-1].Schema.Columns) {
					widenings++
				}
				published = append(published, got)
				copies = append(copies, deepCopy(got))
			}
			for k, res := range published {
				if !reflect.DeepEqual(res.Table.Rows, copies[k].Table.Rows) || !reflect.DeepEqual(res.Prov, copies[k].Prov) {
					t.Errorf("%s seed %d: the Result of chunk %d was written to after it was returned", name, seed, k+1)
				}
			}
			if cfg.Method == MethodEquiFD {
				if widenings == 0 {
					t.Errorf("%s seed %d: vacuous — no chunk widened the schema", name, seed)
				}
			} else if rewrites == 0 || s.RewriteCacheHits() == 0 || s.idx.Rebuilds() == 0 {
				t.Errorf("%s seed %d: vacuous drift — %d rewrites, %d rewrite-cache hits, %d rebuilds",
					name, seed, rewrites, s.RewriteCacheHits(), s.idx.Rebuilds())
			}
		}
	}
}

// deepCopy copies a Result's rows and provenance into fresh slices.
func deepCopy(res *Result) *fd.Result {
	out := &fd.Result{Table: res.Table.Clone(), Prov: make([][]fd.TID, len(res.Prov))}
	for i, p := range res.Prov {
		out.Prov[i] = slices.Clone(p)
	}
	return out
}

// TestSessionStreamsOneIntegrationState: with tables appended in a fixed
// order while two goroutines integrate and two stream, every stream's row
// multiset is a one-shot result over a prefix of the appended tables — no
// component emitted twice, none missing — and every Integrate is
// byte-identical to one. The prefix is identified by FDStats.InputTuples,
// which grows strictly with it.
func TestSessionStreamsOneIntegrationState(t *testing.T) {
	const n = 24
	tables := make([]*table.Table, n)
	for j := range tables {
		tb := table.New(fmt.Sprintf("T%d", j), "k", "a", "b")
		tb.MustAppendRow(table.S(fmt.Sprintf("k%d", j%5)), table.S(fmt.Sprintf("a%d", j)), table.Null())
		tb.MustAppendRow(table.S(fmt.Sprintf("k%d", (j+2)%5)), table.Null(), table.S(fmt.Sprintf("b%d", j)))
		tables[j] = tb
	}
	cfg := Config{Method: MethodEquiFD}
	prefix := make(map[int]*Result) // input tuples -> one-shot result
	for k := 1; k <= n; k++ {
		res, err := Integrate(tables[:k], cfg)
		if err != nil {
			t.Fatal(err)
		}
		prefix[res.FDStats.InputTuples] = res
	}

	s := NewSession(cfg)
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tb := range tables {
			s.Add(tb)
			runtime.Gosched()
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				got, err := s.IntegrateContext(ctx)
				if errors.Is(err, ErrNoTables) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				want := prefix[got.FDStats.InputTuples]
				if want == nil || !got.Table.Equal(want.Table) || !reflect.DeepEqual(got.Prov, want.Prov) {
					t.Errorf("Integrate over %d input tuples is no prefix's one-shot result", got.FDStats.InputTuples)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				got, res, err := streamMultiset(ctx, s)
				if errors.Is(err, ErrNoTables) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				want := prefix[res.FDStats.InputTuples]
				if want == nil || !reflect.DeepEqual(got, rowMultiset(want.Table.Rows)) {
					t.Errorf("stream over %d input tuples is no prefix's one-shot multiset", res.FDStats.InputTuples)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSessionSlowStreamDoesNotHoldUpAdd: a stream whose consumer blocks
// after the first row holds up no add on the same session — another
// goroutine's Append and IntegrateContext return while emit waits — and
// emit may call back into its own session.
func TestSessionSlowStreamDoesNotHoldUpAdd(t *testing.T) {
	a := table.New("A", "k", "x")
	a.MustAppendRow(table.S("k1"), table.S("x1"))
	a.MustAppendRow(table.S("k2"), table.S("x2"))
	b := table.New("B", "k", "y")
	b.MustAppendRow(table.S("k1"), table.S("y1"))
	s := NewSession(Config{Method: MethodEquiFD})
	s.Add(a)
	ctx := context.Background()

	emitted := 0
	res, err := s.StreamContext(ctx, func(fd.Schema, table.Row, []fd.TID) error {
		emitted++
		if emitted > 1 {
			return nil
		}
		if n := s.Tables(); n != 1 {
			t.Errorf("emit sees %d tables, want 1", n)
		}
		added := make(chan error, 1)
		go func() {
			if err := s.Append(b); err != nil {
				added <- err
				return
			}
			_, err := s.IntegrateContext(ctx)
			added <- err
		}()
		select {
		case err := <-added:
			return err
		case <-time.After(5 * time.Second):
			return errors.New("an add's integration waited for the stream's consumer")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 2 || res.FDStats.InputTuples != 2 {
		t.Errorf("stream emitted %d rows over %d input tuples, want A's 2 rows", emitted, res.FDStats.InputTuples)
	}
	if last := s.Last(); last == res || last.FDStats.InputTuples != 3 {
		t.Errorf("Last is not the add's integration over all 3 input tuples")
	}
}
