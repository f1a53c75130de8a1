package match_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/match"
)

// imdbIDColumns returns the aligning title-id columns of the generated IMDB
// benchmark: random fixed-width identifiers that share hashed trigrams but
// almost never a token, so blocking links them into one giant candidate
// component with well under 1 % of its cells filled.
func imdbIDColumns(totalTuples int) []match.Column {
	var cols []match.Column
	for _, t := range datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: totalTuples}) {
		if ci := t.ColumnIndex("tconst"); ci >= 0 {
			cols = append(cols, match.NewColumn(t.Name+".tconst", t.ColumnValues(ci)))
		}
	}
	return cols
}

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
	dense, _, err := (&match.Matcher{Emb: emb}).Pin(match.Dense).Match(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}
	sparse, stats, err := (&match.Matcher{Emb: emb}).Pin(match.Sparse).Match(context.Background(), cols)
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
	m := (&match.Matcher{Emb: embed.NewMistral()}).Pin(match.Sparse)
	want, _, err := m.Match(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := m.Match(context.Background(), cols)
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
