package fd

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"fuzzyfd/internal/table"
)

// chainTables builds a path-shaped integration set: table i holds one row
// (v_i, v_{i+1}) over columns (c_i, c_{i+1}), so every consecutive pair of
// tuples is mergeable and the whole input is one connected component whose
// closure holds one tuple per interval — n(n+1)/2 tuples, with far more
// merge attempts. The canonical "hub component dominates wall-clock"
// shape, at test scale.
func chainTables(n int) []*table.Table {
	tables := make([]*table.Table, n)
	for i := 0; i < n; i++ {
		t := table.New(fmt.Sprintf("L%d", i), fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1))
		t.MustAppendRow(table.S(fmt.Sprintf("v%d", i)), table.S(fmt.Sprintf("v%d", i+1)))
		tables[i] = t
	}
	return tables
}

// flipCtx is a deterministic cancellation fixture: Err reports the context
// dead starting with the (after+1)-th call, and counts calls. Done is
// inherited from context.Background (never fires), so only the polled Err
// path — the one the closure uses — observes the cancellation.
type flipCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func newFlipCtx(after int) *flipCtx {
	return &flipCtx{Context: context.Background(), after: int64(after)}
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

var cancelVariants = []struct {
	name string
	opts Options
}{
	{"partitioned", Options{}},
	{"partitioned-nopivot", Options{NoPivot: true}},
	{"partitioned-steal4", Options{Workers: 4}},
}

// TestFullDisjunctionContextPreCanceled: a context dead on arrival fails
// fast with ErrCanceled, before any closure work, at every setting.
func TestFullDisjunctionContextPreCanceled(t *testing.T) {
	tables := fig1Tables()
	schema := IdentitySchema(tables)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range cancelVariants {
		if _, err := FullDisjunctionContext(ctx, tables, schema, v.opts); !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: want ErrCanceled, got %v", v.name, err)
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancellation does not unwrap to context.Canceled: %v", v.name, err)
		}
	}
}

// A context canceled before a Workers > 1 closure of a single large
// component starts surfaces as ErrCanceled, without deadlock.
func TestConcurrentClosureCancel(t *testing.T) {
	tables := chainTables(60)
	schema := IdentitySchema(tables)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FullDisjunctionContext(ctx, tables, schema, Options{Workers: 4}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestCancellationInsideComponent proves the deadline check fires inside a
// single large component, within a bounded number of expansions: the whole
// chain is one component, the context flips dead only after the closure
// has already started expanding it, and the closure must stop at its next
// poll — at most cancelEvery expansions later — rather than running the
// quadratic closure to fixpoint.
func TestCancellationInsideComponent(t *testing.T) {
	tables := chainTables(60)
	schema := IdentitySchema(tables)

	// Reference run: the closure is big, so an uncancelled run performs
	// many merge attempts — cancellation cutting in early is observable.
	ref, err := FullDisjunction(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Components != 1 {
		t.Fatalf("fixture must be a single component, got %d", ref.Stats.Components)
	}
	if ref.Stats.MergeAttempts < 10*cancelEvery {
		t.Fatalf("fixture too small to observe bounded cancellation: %d attempts", ref.Stats.MergeAttempts)
	}

	for _, v := range cancelVariants {
		t.Run(v.name, func(t *testing.T) {
			// Let the entry, reconcile, claim-round and component-boundary
			// checks pass (4 polls), then flip. Detection must then happen
			// inside the component closure.
			ctx := newFlipCtx(4)
			_, err := FullDisjunctionContext(ctx, tables, schema, v.opts)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			// Bounded: after the flip every poll reports dead and each
			// poller stops at its next poll, i.e. within cancelEvery
			// expansions per worker. A run to fixpoint would need
			// MergeAttempts/cancelEvery ≥ 10 further polls.
			calls := ctx.calls.Load()
			limit := ctx.after + 3 + 2*int64(v.opts.Workers) // workers poll once each before stopping
			if calls > limit {
				t.Errorf("context polled %d times after flip (limit %d): cancellation not bounded", calls, limit)
			}
			if calls <= ctx.after {
				t.Errorf("context never polled past the flip: checks did not fire inside the component")
			}
		})
	}
}

// TestFullDisjunctionContextBackgroundIdentical: with a background context
// the ctx path is byte-identical — tables and provenance — to the original
// entry point, at every setting.
func TestFullDisjunctionContextBackgroundIdentical(t *testing.T) {
	for _, tables := range [][]*table.Table{fig1Tables(), chainTables(12)} {
		schema := IdentitySchema(tables)
		for _, v := range cancelVariants {
			want, err := FullDisjunction(tables, schema, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FullDisjunctionContext(context.Background(), tables, schema, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Table, want.Table) || !reflect.DeepEqual(got.Prov, want.Prov) {
				t.Errorf("%s: context run differs from plain run", v.name)
			}
		}
	}
}

// TestUpdateContextCanceledThenRecovers: a canceled incremental Update
// returns ErrCanceled, and the next Update with a live context matches the
// batch result — cancellation must not leave stale component caches
// behind. The ingested delta survives: its dirty marks persist, so
// recovery re-closes the affected components in place instead of dropping
// the tuple store and rebuilding — sequentially and under Workers > 1.
func TestUpdateContextCanceledThenRecovers(t *testing.T) {
	tables := chainTables(40)
	schema := IdentitySchema(tables)

	for _, v := range []struct {
		name string
		opts Options
	}{
		{"seq", Options{}},
		{"steal4", Options{Workers: 4}},
	} {
		t.Run(v.name, func(t *testing.T) {
			x := NewIndex()
			seed := tables[:20]
			if _, err := x.Update(seed, Schema{Columns: schema.Columns[:21], Mapping: schema.Mapping[:20]}, v.opts); err != nil {
				t.Fatal(err)
			}

			ctx := newFlipCtx(3)
			if _, err := x.UpdateContext(ctx, tables, schema, v.opts); !errors.Is(err, ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}

			got, err := x.Update(tables, schema, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := FullDisjunction(tables, schema, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Table, want.Table) || !reflect.DeepEqual(got.Prov, want.Prov) {
				t.Error("post-cancellation Update differs from batch FullDisjunction")
			}
			if x.Rebuilds() != 0 {
				t.Errorf("canceled Update forced %d rebuilds; recovery should re-close dirty components in place", x.Rebuilds())
			}
		})
	}
}

// TestBudgetDeterministicAcrossWorkers: whether ErrTupleBudget fires
// depends only on the closure's final size, never on the schedule — a
// budget exactly at the closure size passes and one below it aborts, for
// every worker count. (Only distinct produced tuples reserve budget;
// duplicate productions dedup at the signature index.)
func TestBudgetDeterministicAcrossWorkers(t *testing.T) {
	tables := chainTables(30)
	schema := IdentitySchema(tables)
	ref, err := FullDisjunction(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	limit := ref.Stats.Closure
	for _, workers := range []int{1, 2, 8} {
		opts := Options{Workers: workers}
		for trial := 0; trial < 2; trial++ {
			opts.MaxTuples = limit
			if _, err := FullDisjunction(tables, schema, opts); err != nil {
				t.Fatalf("workers=%d: budget at the limit failed: %v", workers, err)
			}
			opts.MaxTuples = limit - 1
			if _, err := FullDisjunction(tables, schema, opts); !errors.Is(err, ErrTupleBudget) {
				t.Fatalf("workers=%d: budget below the limit returned %v", workers, err)
			}
		}
	}
}

// TestIndexBudgetAbortRecoversAcrossWorkers: a budget-aborted concurrent
// Update must leave the Index recoverable — the retry without a budget is
// byte-identical to the batch result at every worker count.
func TestIndexBudgetAbortRecoversAcrossWorkers(t *testing.T) {
	tables := chainTables(40)
	schema := IdentitySchema(tables)
	want, err := FullDisjunction(tables, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"steal4", Options{Workers: 4}},
		{"steal8", Options{Workers: 8}},
	} {
		t.Run(v.name, func(t *testing.T) {
			x := NewIndex()
			seed := tables[:20]
			if _, err := x.Update(seed, Schema{Columns: schema.Columns[:21], Mapping: schema.Mapping[:20]}, v.opts); err != nil {
				t.Fatal(err)
			}
			opts := v.opts
			opts.MaxTuples = want.Stats.Closure - 1
			if _, err := x.Update(tables, schema, opts); !errors.Is(err, ErrTupleBudget) {
				t.Fatalf("want ErrTupleBudget, got %v", err)
			}
			got, err := x.Update(tables, schema, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Table, want.Table) || !reflect.DeepEqual(got.Prov, want.Prov) {
				t.Error("post-abort retry differs from batch FullDisjunction")
			}
		})
	}
}
