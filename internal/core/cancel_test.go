package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
)

// gateEmbedder is the deterministic slow-embedder fixture: the first Embed
// call signals started and blocks until release, every later call returns
// immediately. It stands in for a slow model under load without any
// timing assumptions.
type gateEmbedder struct {
	inner   embed.Embedder
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func newGateEmbedder() *gateEmbedder {
	return &gateEmbedder{
		inner:   embed.NewMistral(),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (g *gateEmbedder) Name() string { return "gated-" + g.inner.Name() }
func (g *gateEmbedder) Dim() int     { return g.inner.Dim() }
func (g *gateEmbedder) Embed(v string) embed.Vector {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	return g.inner.Embed(v)
}

// TestIntegrateContextCancelsMatchPhase: cancellation during the match
// phase's embedding warm-up surfaces as a *PhaseError naming the match
// phase and matching both fd.ErrCanceled and context.Canceled. The gate
// makes the schedule deterministic: the warm-up is provably in flight when
// the context dies.
func TestIntegrateContextCancelsMatchPhase(t *testing.T) {
	gate := newGateEmbedder()
	cfg := Config{Embedder: gate, MatchWorkers: 1}
	tables := fig1()

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := IntegrateContext(ctx, tables, cfg)
		done <- outcome{res, err}
	}()

	<-gate.started // warm-up is mid-embedding
	cancel()
	close(gate.release)

	out := <-done
	if out.res != nil {
		t.Fatal("canceled integration returned a result")
	}
	if !errors.Is(out.err, fd.ErrCanceled) || !errors.Is(out.err, context.Canceled) {
		t.Fatalf("want ErrCanceled ∧ context.Canceled, got %v", out.err)
	}
	var pe *PhaseError
	if !errors.As(out.err, &pe) {
		t.Fatalf("want *PhaseError, got %T: %v", out.err, out.err)
	}
	if pe.Phase != PhaseMatch {
		t.Errorf("Phase = %q, want %q", pe.Phase, PhaseMatch)
	}
}

// TestSessionRecoversAfterCanceledIntegrate: a session whose Integrate was
// canceled still produces the byte-identical result on the next call with
// a live context.
func TestSessionRecoversAfterCanceledIntegrate(t *testing.T) {
	tables := fig1()
	want, err := Integrate(tables, Config{})
	if err != nil {
		t.Fatal(err)
	}

	s := NewSession(Config{})
	s.Add(tables...)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.IntegrateContext(dead); !errors.Is(err, fd.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if s.Last() != nil || s.Integrations() != 0 {
		t.Error("canceled Integrate recorded a result")
	}
	got, err := s.IntegrateContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.String() != want.Table.String() {
		t.Error("post-cancellation session result differs from one-shot")
	}
	if s.Last() != got {
		t.Error("Last does not return the latest result")
	}
}

// TestProgressEventSequence: events arrive in pipeline order — each phase
// opens before it closes, the FD phase reports per-component closures with
// a monotonic Done counter, and phases appear in align → match → fd order.
func TestProgressEventSequence(t *testing.T) {
	var events []ProgressEvent
	cfg := Config{Progress: func(ev ProgressEvent) { events = append(events, ev) }}
	if _, err := Integrate(fig1(), cfg); err != nil {
		t.Fatal(err)
	}

	phaseOrder := map[string]int{PhaseAlign: 0, PhaseMatch: 1, PhaseFD: 2}
	open := make(map[string]bool)
	lastPhase := -1
	components := 0
	for _, ev := range events {
		idx, ok := phaseOrder[ev.Phase]
		if !ok {
			t.Fatalf("unknown phase %q", ev.Phase)
		}
		if idx < lastPhase {
			t.Fatalf("phase %q after phase index %d", ev.Phase, lastPhase)
		}
		lastPhase = idx
		switch {
		case ev.Component > 0:
			if ev.Phase != PhaseFD {
				t.Errorf("component event outside fd phase: %+v", ev)
			}
			components++
		case ev.Done:
			if !open[ev.Phase] {
				t.Errorf("phase %q closed without opening", ev.Phase)
			}
			open[ev.Phase] = false
		default:
			open[ev.Phase] = true
		}
	}
	for phase, stillOpen := range open {
		if stillOpen {
			t.Errorf("phase %q never completed", phase)
		}
	}
	if components == 0 {
		t.Error("no per-component progress events")
	}
	if lastPhase != phaseOrder[PhaseFD] {
		t.Error("pipeline did not end with the fd phase")
	}
}

// TestStreamMatchesIntegrate: a session's stream emits Integrate's rows
// with their provenance, in Integrate's order, over the fuzzy pipeline
// (representative rewriting included), sequentially and with parallel FD;
// the Result it returns is the one it streamed.
func TestStreamMatchesIntegrate(t *testing.T) {
	tables := fig1()
	for _, workers := range []int{1, 4} {
		cfg := Config{FD: fd.Options{Workers: workers}}
		want, err := Integrate(tables, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(cfg)
		s.Add(tables...)
		var rows []table.Row
		var provs [][]fd.TID
		res, err := s.StreamContext(context.Background(), func(schema fd.Schema, row table.Row, prov []fd.TID) error {
			if !reflect.DeepEqual(schema.Columns, want.Table.Columns) {
				t.Errorf("streamed schema %v, want %v", schema.Columns, want.Table.Columns)
			}
			rows = append(rows, row)
			provs = append(provs, prov)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatal("no rows streamed")
		}
		if !reflect.DeepEqual(rows, want.Table.Rows) || !reflect.DeepEqual(provs, want.Prov) {
			t.Errorf("workers=%d: stream differs from Integrate:\ngot  %v %v\nwant %v %v", workers, rows, provs, want.Table.Rows, want.Prov)
		}
		if res != s.Last() || !reflect.DeepEqual(res.Table.Rows, rows) {
			t.Errorf("workers=%d: the stream's Result is not the Last it streamed", workers)
		}
	}
}

func rowString(row table.Row) string {
	s := ""
	for _, c := range row {
		if c.IsNull {
			s += "\x00⊥"
		} else {
			s += "\x00" + c.Val
		}
	}
	return s
}
