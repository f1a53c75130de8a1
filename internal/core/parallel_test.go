package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/fd"
)

// matchRun is what one integration reports of its match phase and result.
type matchRun struct {
	res   *Result
	steps []*Result // a session's results, one per table added
}

// sameMatchRun reports the first difference between two integrations' rows,
// provenance, clusters and match statistics, or "".
func sameMatchRun(a, b *Result) string {
	switch {
	case !a.Table.Equal(b.Table):
		return "rows"
	case !reflect.DeepEqual(a.Prov, b.Prov):
		return "provenance"
	case !reflect.DeepEqual(a.ColumnClusters, b.ColumnClusters):
		return "column clusters"
	case a.MatchStats != b.MatchStats:
		return "match stats"
	}
	return ""
}

// The match phase matches column sets concurrently and scores each round's
// candidates over spans of side A, both following GOMAXPROCS. Neither may
// change anything it computes: on fuzzy IMDB at 4 000 tuples, where one
// round scores every pair, the others are blocked and every round scores
// its pairs in four spans at GOMAXPROCS 4, a one-shot and a session fed
// one table at a time integrate the same rows, provenance, clusters and
// match statistics (assignment counters and replayed rounds included) at
// GOMAXPROCS 1, 2 and 4.
func TestMatchPhaseIdenticalAtEveryGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []int64{42, 7, 99, 123} {
		tables := datagen.IMDB(datagen.IMDBConfig{Seed: seed, TotalTuples: 4000})
		var want matchRun
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			var got matchRun
			var err error
			if got.res, err = Integrate(tables, Config{}); err != nil {
				t.Fatal(err)
			}
			s := NewSession(Config{})
			for _, tbl := range tables {
				s.Add(tbl)
				res, err := s.Integrate()
				if err != nil {
					t.Fatal(err)
				}
				got.steps = append(got.steps, res)
			}
			if procs == 1 {
				if got.res.MatchStats.Rounds == 0 || got.res.MatchStats.CandidatePairs == 0 {
					t.Fatalf("seed %d: no match rounds ran; the fixture tests nothing", seed)
				}
				want = got
				continue
			}
			if d := sameMatchRun(got.res, want.res); d != "" {
				t.Errorf("seed %d: one-shot %s at GOMAXPROCS %d differ from GOMAXPROCS 1", seed, d, procs)
			}
			for i := range got.steps {
				if d := sameMatchRun(got.steps[i], want.steps[i]); d != "" {
					t.Errorf("seed %d: session step %d %s at GOMAXPROCS %d differ from GOMAXPROCS 1", seed, i+1, d, procs)
				}
			}
		}
	}
}

// cancelEmbedder cancels its context when it embeds the value last, which
// the test arranges to be the last value the match phase's warm-up embeds.
type cancelEmbedder struct {
	embed.Embedder
	last   string
	cancel context.CancelFunc
}

func (e cancelEmbedder) Embed(v string) embed.Vector {
	if v == e.last {
		e.cancel()
	}
	return e.Embedder.Embed(v)
}

// A cancellation that lands once the warm-up is done stops the column sets
// at their next round: the integration fails with a *PhaseError for the
// match phase that matches fd.ErrCanceled, and every goroutine the sets and
// their rounds started has exited by the time it returns.
func TestMatchPhaseCancelsConcurrentSets(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		// fig1's column sets are City, then Country; "ES" is the last
		// Country value the warm-up meets. One warm-up worker embeds in
		// that order and checks the context only before each value.
		emb := cancelEmbedder{Embedder: embed.NewMistral(), last: "ES", cancel: cancel}
		res, err := IntegrateContext(ctx, fig1(), Config{Embedder: emb, MatchWorkers: 1})
		cancel()
		if res != nil {
			t.Fatalf("GOMAXPROCS %d: a canceled integration returned a result", procs)
		}
		var pe *PhaseError
		if !errors.As(err, &pe) || pe.Phase != PhaseMatch || !errors.Is(err, fd.ErrCanceled) {
			t.Fatalf("GOMAXPROCS %d: want a match-phase *PhaseError matching fd.ErrCanceled, got %v", procs, err)
		}
		if !strings.Contains(err.Error(), "output column") {
			t.Fatalf("GOMAXPROCS %d: %v came from the warm-up, not from a column set's rounds", procs, err)
		}
		waitGoroutines(t, before)
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to n
// within a few seconds: goroutines that returned may take a moment to be
// reaped, leaked ones never are.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines running, %d before:\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
