package fuzzyfd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"fuzzyfd/internal/datagen"
)

// TestExportedErrTupleBudget: the budget error is reachable through the
// public sentinel, and errors.As extracts the PhaseError naming the FD
// phase.
func TestExportedErrTupleBudget(t *testing.T) {
	_, err := Integrate(covidTables(), WithEquiJoin(), WithTupleBudget(1))
	if !errors.Is(err, ErrTupleBudget) {
		t.Fatalf("want ErrTupleBudget, got %v", err)
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PhaseError, got %T: %v", err, err)
	}
	if pe.Phase != PhaseFD {
		t.Errorf("Phase = %q, want %q", pe.Phase, PhaseFD)
	}
}

// TestWithTupleBudgetRejectsNonPositive: a budget below 1 is a
// configuration error, not "unlimited".
func TestWithTupleBudgetRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := Integrate(covidTables(), WithTupleBudget(n)); err == nil {
			t.Errorf("WithTupleBudget(%d) accepted", n)
		}
	}
}

// integrationVariants covers the engine matrix the byte-identity guarantee
// must hold over.
func integrationVariants() map[string][]Option {
	return map[string][]Option{
		"fuzzy":            nil,
		"equi":             {WithEquiJoin()},
		"equi-par4":        {WithEquiJoin(), WithParallelFD(4)},
		"fuzzy-par4":       {WithParallelFD(4)},
		"greedy-alignment": {WithGreedyAssignment()},
	}
}

// TestIntegrateContextBackgroundIdentical: with context.Background the ctx
// entry point is byte-identical — table and provenance — to Integrate,
// across engine variants.
func TestIntegrateContextBackgroundIdentical(t *testing.T) {
	tables := covidTables()
	for name, opts := range integrationVariants() {
		t.Run(name, func(t *testing.T) {
			want, err := Integrate(tables, opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := IntegrateContext(context.Background(), tables, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got.Table.String() != want.Table.String() {
				t.Error("tables differ")
			}
			if fmt.Sprint(got.Prov) != fmt.Sprint(want.Prov) {
				t.Error("provenance differs")
			}
		})
	}
}

// TestIntegrateContextCanceledMidFD cancels from the progress callback the
// moment the FD phase starts on an IMDB-shaped workload, proving an
// in-flight closure unwinds with ErrCanceled.
func TestIntegrateContextCanceledMidFD(t *testing.T) {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 7, TotalTuples: 2000})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := IntegrateContext(ctx, tables,
		WithEquiJoin(),
		WithProgress(func(ev ProgressEvent) {
			if ev.Phase == PhaseFD && !ev.Done && ev.Component == 0 {
				cancel()
			}
		}))
	if res != nil {
		t.Fatal("canceled integration returned a result")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled ∧ context.Canceled, got %v", err)
	}
	var pe *PhaseError
	if !errors.As(err, &pe) || pe.Phase != PhaseFD {
		t.Fatalf("want fd-phase PhaseError, got %v", err)
	}
}

// TestResultRows: the iterator yields exactly Table.Rows paired with Prov,
// and stops early when the consumer does.
func TestResultRows(t *testing.T) {
	res, err := Integrate(covidTables())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for row, prov := range res.Rows() {
		if fmt.Sprint(row) != fmt.Sprint(res.Table.Rows[i]) {
			t.Errorf("row %d differs", i)
		}
		if fmt.Sprint(prov) != fmt.Sprint(res.Prov[i]) {
			t.Errorf("prov %d differs", i)
		}
		i++
	}
	if i != res.Table.NumRows() {
		t.Errorf("iterated %d rows, want %d", i, res.Table.NumRows())
	}
	i = 0
	for range res.Rows() {
		i++
		break
	}
	if i != 1 {
		t.Error("early break did not stop iteration")
	}
}

// TestStreamJSONLMatchesBatch: streamed JSONL is the batch WriteJSONL
// output byte for byte, for both pipelines, sequentially and with parallel
// FD.
func TestStreamJSONLMatchesBatch(t *testing.T) {
	tables := covidTables()
	for name, opts := range map[string][]Option{
		"fuzzy":      nil,
		"fuzzy-par4": {WithParallelFD(4)},
		"equi":       {WithEquiJoin()},
		"equi-par4":  {WithEquiJoin(), WithParallelFD(4)},
	} {
		t.Run(name, func(t *testing.T) {
			batch, err := Integrate(tables, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var want strings.Builder
			if err := WriteJSONL(&want, batch.Table); err != nil {
				t.Fatal(err)
			}

			var got strings.Builder
			res, err := StreamJSONL(context.Background(), &got, tables, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if res.FDStats.Output != batch.Table.NumRows() {
				t.Errorf("stream Output=%d, batch rows=%d", res.FDStats.Output, batch.Table.NumRows())
			}
			if got.String() != want.String() {
				t.Errorf("JSONL differs:\nbatch:\n%s\nstream:\n%s", want.String(), got.String())
			}
		})
	}
}

// TestMatchValuesContextCanceled and TestDiscoverContextCanceled: the
// auxiliary entry points observe cancellation and mark it ErrCanceled.
func TestMatchValuesContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cols := [][]string{{"Berlin", "Toronto"}, {"Berlinn", "toronto"}}
	if _, err := MatchValuesContext(ctx, cols); !errors.Is(err, ErrCanceled) {
		t.Errorf("MatchValuesContext: want ErrCanceled, got %v", err)
	}
	if _, err := MatchValues(cols); err != nil {
		t.Errorf("MatchValues still works: %v", err)
	}
}

func TestDiscoverContextCanceled(t *testing.T) {
	tables := covidTables()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DiscoverJoinableContext(ctx, tables[0], tables[1:], 2); !errors.Is(err, ErrCanceled) {
		t.Errorf("DiscoverJoinableContext: want ErrCanceled, got %v", err)
	}
	if _, err := DiscoverUnionableContext(ctx, tables[0], tables[1:], 2); !errors.Is(err, ErrCanceled) {
		t.Errorf("DiscoverUnionableContext: want ErrCanceled, got %v", err)
	}
	if _, err := DiscoverJoinable(tables[0], tables[1:], 2); err != nil {
		t.Errorf("DiscoverJoinable still works: %v", err)
	}
}

// TestSessionConcurrent hammers one Session with concurrent adders,
// integrators, and snapshot readers — the serving workload — under the
// race detector, then checks the final result is byte-identical to a
// one-shot Integrate. All tables share one column set, so the integrated
// table is independent of add interleaving.
func TestSessionConcurrent(t *testing.T) {
	const adders, perAdder = 4, 5
	mkTable := func(i, j int) *Table {
		tb := NewTable(fmt.Sprintf("T%d_%d", i, j), "k", "a", "b")
		tb.MustAppendRow(String(fmt.Sprintf("k%d", i)), String(fmt.Sprintf("a%d_%d", i, j)), Null())
		tb.MustAppendRow(String(fmt.Sprintf("k%d_%d", i, j)), Null(), String(fmt.Sprintf("b%d_%d", i, j)))
		return tb
	}
	var all []*Table
	for i := 0; i < adders; i++ {
		for j := 0; j < perAdder; j++ {
			all = append(all, mkTable(i, j))
		}
	}

	s, err := NewSession(WithEquiJoin())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < adders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perAdder; j++ {
				s.Add(mkTable(i, j))
			}
		}(i)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 8; n++ {
				if _, err := s.IntegrateContext(context.Background()); err != nil && !errors.Is(err, ErrNoTables) {
					t.Errorf("concurrent Integrate: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				_ = s.Tables()
				_ = s.Stats()
				if last := s.Last(); last != nil {
					_ = last.Table.NumRows() // snapshot stays readable
				}
			}
		}()
	}
	wg.Wait()

	final, err := s.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	if s.Last() != final {
		t.Error("Last does not return the final result")
	}
	if s.Stats().Output != final.FDStats.Output {
		t.Error("Stats does not reflect the final result")
	}
	want, err := Integrate(all, WithEquiJoin())
	if err != nil {
		t.Fatal(err)
	}
	if final.Table.String() != want.Table.String() {
		t.Errorf("concurrent session result differs from one-shot:\n%v\nvs\n%v", final.Table, want.Table)
	}
}
