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

// TestSessionRewriteDriftMatchesOneShot feeds a fuzzy session EMBench
// tables in shuffled row chunks, so value-matching rounds keep electing
// different representatives and the FD index keeps re-verifying and
// rebuilding its store. After every chunk the session's Integrate must be
// byte-identical to the one-shot pipeline over the chunks so far, and its
// stream must carry the same row multiset.
func TestSessionRewriteDriftMatchesOneShot(t *testing.T) {
	ctx := context.Background()
	for _, tier := range []string{embed.FastText, embed.Mistral} {
		model, err := embed.New(tier)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Embedder: model}
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
			rewrites := 0
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
					t.Fatalf("%s seed %d chunk %d: session differs from the one-shot pipeline", tier, seed, k+1)
				}
				streamed, _, err := streamMultiset(ctx, s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(streamed, rowMultiset(want.Table.Rows)) {
					t.Fatalf("%s seed %d chunk %d: stream multiset differs from Integrate", tier, seed, k+1)
				}
				rewrites += got.MatchStats.Rewrites
			}
			if rewrites == 0 || s.RewriteCacheHits() == 0 || s.idx.Rebuilds() == 0 {
				t.Errorf("%s seed %d: vacuous drift — %d rewrites, %d rewrite-cache hits, %d rebuilds",
					tier, seed, rewrites, s.RewriteCacheHits(), s.idx.Rebuilds())
			}
		}
	}
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
