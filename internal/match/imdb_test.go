package match_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/match"
)

// Identifier columns form one giant, very sparse candidate component (see
// imdbIDColumns) — where a solver that explores adjacency lists and one
// that fills a matrix differ most. Every foreign key has its exact partner,
// so the optimum is unique and both modes must return the same clusters.
func TestDenseSparseAgreementIdentifiers(t *testing.T) {
	cols := imdbIDColumns(8000)[:2]
	for _, c := range cols {
		if len(c.Values) < 1000 {
			t.Fatalf("column %s has %d values, want ≥ 1000 a side", c.Name, len(c.Values))
		}
	}
	emb := embed.NewMistral()
	dense, err := (&match.Matcher{Emb: emb, Opts: match.Options{Mode: match.ModeDense}}).Match(cols)
	if err != nil {
		t.Fatal(err)
	}
	sparse, stats, err := (&match.Matcher{Emb: emb, Opts: match.Options{Mode: match.ModeSparse}}).
		MatchWithStats(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dense, sparse) {
		t.Errorf("dense and sparse clusters differ (%d vs %d clusters)", len(dense), len(sparse))
	}

	// The fixture is only worth its run time while it keeps that shape.
	big := stats.LargestAssignComponent
	if big[0] < 1000 || big[1] < 500 || stats.Edges*50 > big[0]*big[1] {
		t.Errorf("largest component %v with %d edges in all: not one giant sparse component", big, stats.Edges)
	}
	if stats.Edges == 0 || stats.CandidatePairs < stats.Edges || stats.AssignComponents == 0 {
		t.Errorf("assignment counters %+v", stats)
	}
	if want := match.Summarize(sparse); stats.Clusters != want.Clusters || stats.Merged != want.Merged {
		t.Errorf("stats %+v disagree with Summarize %+v", stats, want)
	}
}

// A Matcher is shared across calls and goroutines (core.Session, the
// benchmarks), so nothing a call memoizes may live on it: concurrent calls
// must all return what a lone call returns. Run under -race.
func TestMatcherSharedAcrossGoroutines(t *testing.T) {
	cols := imdbIDColumns(2000)
	m := &match.Matcher{Emb: embed.NewMistral(), Opts: match.Options{Mode: match.ModeSparse}}
	want, err := m.Match(cols)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := m.Match(cols)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent call returned different clusters (%d vs %d)", len(got), len(want))
			}
		}()
	}
	wg.Wait()
}
