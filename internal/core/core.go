// Package core implements the paper's integration pipelines end to end:
//
//   - Fuzzy Full Disjunction (the contribution): align columns, find fuzzy
//     value matches per aligned column set, rewrite cells to cluster
//     representatives, then apply the equi-join Full Disjunction operator.
//   - Regular Full Disjunction (the ALITE baseline): the same pipeline
//     without the value-matching step.
//
// Per-phase timings are recorded so the efficiency comparison of the
// paper's Figure 3 — Fuzzy FD adds no significant overhead over FD — can be
// reproduced directly.
package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"strings"
	"time"

	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/match"
	"fuzzyfd/internal/table"
)

// Method selects the integration pipeline.
type Method int

const (
	// MethodFuzzyFD is the paper's contribution: value matching before FD.
	MethodFuzzyFD Method = iota
	// MethodEquiFD is the regular Full Disjunction baseline (ALITE).
	MethodEquiFD
)

// String names the method as the paper does.
func (m Method) String() string {
	if m == MethodEquiFD {
		return "ALITE (equi-join FD)"
	}
	return "Fuzzy FD"
}

// Pipeline phase names, as reported by ProgressEvent and PhaseError.
const (
	PhaseAlign = "align"
	PhaseMatch = "match"
	PhaseFD    = "fd"
)

// ProgressEvent is one progress report from a running integration: a phase
// starting (Done false), a phase completing (Done true, with Elapsed), or —
// during the FD phase — one connected component's closure completing
// (Component ≥ 1). Events are delivered from the integrating goroutine, in
// order; the callback must not call back into the Session it observes.
type ProgressEvent struct {
	Phase   string        // PhaseAlign, PhaseMatch, or PhaseFD
	Done    bool          // phase completed
	Elapsed time.Duration // set on phase-completion events

	// Per-component closure progress (FD phase only; zero on phase
	// transitions): Component counts components closed so far this run out
	// of Components scheduled, the just-closed one having ClosureTuples
	// closure tuples. PivotColumn is the output column the component's
	// posting lists were pivot-bucketed by (-1 = closed unbucketed) and
	// PivotSkipped the candidate iterations that bucketing skipped; both
	// are meaningful only on component events (Component ≥ 1).
	Component     int
	Components    int
	ClosureTuples int
	PivotColumn   int
	PivotSkipped  int
}

// PhaseError records which pipeline phase an integration error came from.
// It unwraps, so errors.Is/As reach the underlying cause (fd.ErrTupleBudget,
// fd.ErrCanceled, context.DeadlineExceeded, ...).
type PhaseError struct {
	Phase string // PhaseAlign, PhaseMatch, or PhaseFD
	Err   error
}

func (e *PhaseError) Error() string { return fmt.Sprintf("core: %s: %v", e.Phase, e.Err) }
func (e *PhaseError) Unwrap() error { return e.Err }

// phaseErr wraps a stage failure in a PhaseError, first marking context
// cancellations so the result matches fd.ErrCanceled (fd-layer errors
// arrive pre-marked; fd.Canceled is idempotent).
func phaseErr(phase string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		err = fd.Canceled(err)
	}
	return &PhaseError{Phase: phase, Err: err}
}

// Config parameterizes an integration run. The zero value is a usable Fuzzy
// FD configuration with the paper's defaults (Mistral embeddings, θ=0.7,
// schema alignment by identical column names).
type Config struct {
	Method Method
	// Embedder powers value matching (and content-based alignment). Nil
	// means the Mistral tier.
	Embedder embed.Embedder
	// Theta is the value-matching threshold (0 → match.DefaultTheta).
	Theta float64
	// MatchMode selects the assignment strategy (dense/sparse/auto/greedy).
	MatchMode match.Mode
	// AlignContent enables content-based column alignment (holistic schema
	// matching). When false, columns align by identical names.
	AlignContent bool
	// AlignThreshold overrides the alignment similarity threshold.
	AlignThreshold float64
	// UseHeaders blends headers into content-based alignment.
	UseHeaders bool
	// MatchWorkers sets the concurrency of the match phase's value
	// pre-embedding. 0 means runtime.NumCPU(). The match phase has its own
	// knob because its parallelism is about embedder throughput, not about
	// the FD closure (FD.Workers).
	MatchWorkers int
	// FD tunes the Full Disjunction computation.
	FD fd.Options
	// Progress, when non-nil, observes phase transitions and per-component
	// closure completions (see ProgressEvent). Called from the integrating
	// goroutine; it must be fast and must not call back into the session.
	Progress func(ProgressEvent)
}

// ResolvedMatchWorkers returns the effective match-phase concurrency
// (MatchWorkers, defaulting to the number of CPUs).
func (c Config) ResolvedMatchWorkers() int {
	if c.MatchWorkers > 0 {
		return c.MatchWorkers
	}
	return runtime.NumCPU()
}

// ResolvedEmbedder returns the effective embedding model (Embedder,
// defaulting to the Mistral tier). Every consumer of the configured
// embedder — the pipeline, MatchValues, discovery — must resolve through
// here so the default is defined once.
func (c Config) ResolvedEmbedder() embed.Embedder {
	if c.Embedder == nil {
		return embed.NewMistral()
	}
	return c.Embedder
}

// Timings records wall-clock per pipeline phase.
type Timings struct {
	Align time.Duration
	Match time.Duration // value matching + cell rewriting (zero for equi FD)
	FD    time.Duration
	Total time.Duration
}

// Result is the integrated table with provenance and diagnostics. The rows
// and provenance lists of a Session's Result are shared with the session's
// cached output and with later Results: treat them as read-only. No later
// integration writes to a Result once it is returned.
type Result struct {
	Table  *table.Table
	Prov   [][]fd.TID
	Schema fd.Schema
	// ColumnClusters maps output column index → the value clusters found
	// for that aligned column set (fuzzy method only, sets with ≥2 source
	// columns only).
	ColumnClusters map[int][]match.Cluster
	MatchStats     match.Stats
	FDStats        fd.Stats
	Timings        Timings
}

// FDResult adapts the result for consumers of fd.Result (e.g. the entity
// matcher's provenance-level evaluation).
func (r *Result) FDResult() *fd.Result {
	return &fd.Result{Table: r.Table, Prov: r.Prov, Stats: r.FDStats}
}

// Rows iterates the integrated rows with their provenance, in result
// order — range-over-func sugar for walking Table.Rows and Prov together:
//
//	for row, prov := range res.Rows() { ... }
//
// Session.StreamContext walks the same rows in the same order.
func (r *Result) Rows() iter.Seq2[table.Row, []fd.TID] {
	return func(yield func(table.Row, []fd.TID) bool) {
		for i, row := range r.Table.Rows {
			if !yield(row, r.Prov[i]) {
				return
			}
		}
	}
}

// TableWithProvenance returns a copy of the integrated table with a
// leading TIDs column listing each row's source tuples — the presentation
// of the paper's Figure 1.
func (r *Result) TableWithProvenance() *table.Table {
	cols := append([]string{"TIDs"}, r.Table.Columns...)
	out := table.New(r.Table.Name, cols...)
	for i, row := range r.Table.Rows {
		ids := make([]string, len(r.Prov[i]))
		for k, tid := range r.Prov[i] {
			ids[k] = tid.String()
		}
		nr := make(table.Row, 0, len(row)+1)
		nr = append(nr, table.S("{"+strings.Join(ids, ",")+"}"))
		out.Rows = append(out.Rows, append(nr, row...))
	}
	return out
}

// ErrNoTables is returned for an empty integration set.
var ErrNoTables = errors.New("core: no tables to integrate")

// Integrate runs the configured pipeline over the integration set. Input
// tables are never mutated. It is implemented as a throwaway Session —
// one Add, one Integrate — so the one-shot and incremental paths are the
// same code and stay byte-identical by construction.
func Integrate(tables []*table.Table, cfg Config) (*Result, error) {
	return IntegrateContext(context.Background(), tables, cfg)
}

// IntegrateContext is Integrate under a context: cancellation and
// deadlines are observed at phase boundaries, inside the match phase's
// embedding warm-up and assignment rounds, and inside the FD closure down
// to single-component granularity. A canceled run returns an error
// matching fd.ErrCanceled (and the context's own error), wrapped in a
// *PhaseError naming the interrupted phase.
func IntegrateContext(ctx context.Context, tables []*table.Table, cfg Config) (*Result, error) {
	s := NewSession(cfg)
	s.Add(tables...)
	return s.IntegrateContext(ctx)
}

// fdOptions resolves the FD options for one run, adapting Progress onto
// the fd layer's per-component callback.
func (c Config) fdOptions() fd.Options {
	opts := c.FD
	if c.Progress != nil {
		progress := c.Progress
		opts.Progress = func(p fd.ComponentProgress) {
			progress(ProgressEvent{
				Phase:         PhaseFD,
				Component:     p.Done,
				Components:    p.Total,
				ClosureTuples: p.Closure,
				PivotColumn:   p.PivotColumn,
				PivotSkipped:  p.PivotSkipped,
			})
		}
	}
	return opts
}

// applyRewrite replaces column ci's cell values according to m.
func applyRewrite(t *table.Table, ci int, m map[string]string) {
	for _, row := range t.Rows {
		if row[ci].IsNull {
			continue
		}
		if rep, ok := m[row[ci].Val]; ok && rep != row[ci].Val {
			row[ci] = table.S(rep)
		}
	}
}

// combineStats aggregates per-column-set match statistics. MeanDistance is
// member-weighted: each set's mean is scaled by the number of members that
// contributed to it, so the combined value is the true mean over all
// matched members rather than an unweighted mean of means (which let a
// two-member column set move the aggregate as much as a thousand-member
// one).
func combineStats(stats []match.Stats) match.Stats {
	var out match.Stats
	var distSum float64
	for _, s := range stats {
		out.Clusters += s.Clusters
		out.Singletons += s.Singletons
		out.Merged += s.Merged
		out.Members += s.Members
		out.Rewrites += s.Rewrites
		if s.LargestSize > out.LargestSize {
			out.LargestSize = s.LargestSize
		}
		distSum += s.MeanDistance * float64(s.DistanceCount)
		out.DistanceCount += s.DistanceCount
		out.CandidatePairs += s.CandidatePairs
		out.Edges += s.Edges
		out.AssignComponents += s.AssignComponents
		if c, big := s.LargestAssignComponent, out.LargestAssignComponent; c[0]*c[1] > big[0]*big[1] {
			out.LargestAssignComponent = c
		}
	}
	if out.DistanceCount > 0 {
		out.MeanDistance = distSum / float64(out.DistanceCount)
	}
	return out
}
