// Package fuzzyfd integrates sets of data lake tables with Fuzzy Full
// Disjunction, the algorithm of "Fuzzy Integration of Data Lake Tables"
// (Khatiwada, Shraga, Miller): Full Disjunction — the associative extension
// of the outer join that integrates tables maximally and without
// redundancy — preceded by a data-driven value-matching step that resolves
// typos, case differences, abbreviations, and synonyms among join values,
// so tuples that denote the same real-world facts integrate even when
// their values disagree textually.
//
// Quick start:
//
//	tables := []*fuzzyfd.Table{t1, t2, t3}
//	res, err := fuzzyfd.Integrate(tables)
//	if err != nil { ... }
//	fmt.Println(res.Table)            // the integrated table
//	fmt.Println(res.Prov[0])          // which input tuples produced row 0
//
// Options select the embedding model, the matching threshold θ, the
// baseline equi-join pipeline, and content-based column alignment for
// tables with unreliable headers:
//
//	res, err := fuzzyfd.Integrate(tables,
//	    fuzzyfd.WithModel(fuzzyfd.ModelMistral),
//	    fuzzyfd.WithThreshold(0.7),
//	    fuzzyfd.WithContentAlignment(true),
//	)
//
// The Full Disjunction uses runtime.GOMAXPROCS(0) CPUs: a hub — a
// component closing from scratch with at least 512 tuples and a selective
// (key-like) column — is split by that column's values into groups that
// close independently across the CPUs. Everything else closes one
// component after another, and results are byte-identical at every
// GOMAXPROCS.
//
// When overlapping integration sets arrive continuously (the serving
// scenario), use a Session instead of repeated Integrate calls: it keeps
// the value dictionary, embedding cache, match clusters, and Full
// Disjunction index alive across calls and re-closes only what each new
// batch of tables touches. Sessions are safe for concurrent use.
//
// Every entry point has a Context variant (IntegrateContext,
// Session.IntegrateContext, MatchValuesContext, DiscoverJoinableContext,
// ...) that observes cancellation and deadlines down to single-component
// granularity inside the Full Disjunction closure; the context-free
// signatures are context.Background() wrappers kept for compatibility.
// Failures carry typed errors — ErrMemoryBudget, ErrCanceled, and
// *PhaseError naming the pipeline phase — that errors.Is/As unwrap, and
// WithProgress streams phase transitions and per-component closure counts
// to a callback. Result.Rows iterates rows with provenance, WriteJSONL
// writes a result's table as JSON Lines, and Session.StreamContext hands a
// session's current result to a callback row by row.
package fuzzyfd

import (
	"context"
	"errors"
	"fmt"
	"io"

	"fuzzyfd/internal/core"
	"fuzzyfd/internal/discovery"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/match"
	"fuzzyfd/internal/table"
	"fuzzyfd/internal/wal"
)

// Re-exported table types: the tabular substrate the integrator consumes
// and produces.
type (
	// Table is a named relation of null-aware string cells.
	Table = table.Table
	// Row is one tuple of a Table.
	Row = table.Row
	// Cell is a single value or null.
	Cell = table.Cell
	// TID identifies an input tuple (table index, row index) in provenance.
	TID = fd.TID
	// Result is an integration result: the integrated table, per-row
	// provenance, value clusters, statistics, and per-phase timings.
	// Result.Rows iterates rows with provenance as an iter.Seq2. A Result
	// returned by a Session is read-only: its rows and provenance lists are
	// shared with the session's cached output and with later Results, so
	// editing a cell in place corrupts every later integration — copy rows
	// you need to change. A one-shot Integrate Result is the caller's own.
	Result = core.Result
	// ValueCluster is one set of matched values with its representative.
	ValueCluster = match.Cluster
	// FDStats reports the work done by the Full Disjunction stage (see
	// Result.FDStats and Session.Stats).
	FDStats = fd.Stats
	// Schema maps each input table's columns onto the integrated output
	// schema (see Result.Schema); streaming emit callbacks receive it with
	// every row.
	Schema = fd.Schema
	// ProgressEvent is one report delivered to a WithProgress callback: a
	// pipeline phase starting or completing, or one connected component's
	// closure finishing during the FD phase.
	ProgressEvent = core.ProgressEvent
	// PhaseError wraps an integration failure with the pipeline phase it
	// came from (PhaseAlign, PhaseMatch, or PhaseFD); errors.As extracts
	// it, and it unwraps to the underlying cause.
	PhaseError = core.PhaseError
)

// Pipeline phase names carried by ProgressEvent and PhaseError.
const (
	PhaseAlign = core.PhaseAlign
	PhaseMatch = core.PhaseMatch
	PhaseFD    = core.PhaseFD
)

// Typed failure modes, matchable with errors.Is through any wrapping
// (including *PhaseError).
var (
	// ErrCanceled is returned when a context passed to a ...Context entry
	// point is canceled or its deadline expires. Such errors also match
	// the context's own error (context.Canceled or
	// context.DeadlineExceeded) under errors.Is.
	ErrCanceled = fd.ErrCanceled
	// ErrNoTables is returned when integrating an empty set.
	ErrNoTables = core.ErrNoTables
	// ErrMemoryBudget is returned when the Full Disjunction's estimated
	// resident memory exceeds the WithMemoryBudget limit.
	ErrMemoryBudget = fd.ErrMemoryBudget
	// ErrDegraded is returned by writes to a durable session whose log has
	// exhausted its retries against a failing filesystem and entered
	// degraded read-only mode. Reads keep working, and each later write
	// first tries to re-arm the log: the first one after the filesystem
	// heals lands.
	ErrDegraded = wal.ErrDegraded
	// ErrSessionClosed is returned by writes to a closed session.
	ErrSessionClosed = core.ErrClosed
)

// Embedding model names, ordered weakest to strongest (paper Table 1).
const (
	ModelFastText = embed.FastText
	ModelBERT     = embed.BERT
	ModelRoBERTa  = embed.RoBERTa
	ModelLlama3   = embed.Llama3
	ModelMistral  = embed.Mistral
)

// DefaultThreshold is the paper's matching threshold θ = 0.7.
const DefaultThreshold = match.DefaultTheta

// NewTable returns an empty table with the given name and columns.
func NewTable(name string, columns ...string) *Table { return table.New(name, columns...) }

// String returns a non-null cell.
func String(s string) Cell { return table.S(s) }

// Null returns a null cell.
func Null() Cell { return table.Null() }

// ReadCSVFile loads a table from a CSV or TSV file. Empty fields and common
// markers (NULL, N/A, ...) are read as nulls.
func ReadCSVFile(path string) (*Table, error) {
	return table.ReadCSVFile(path, table.ReadOptions{TrimSpace: true})
}

// WriteCSVFile writes a table as CSV, rendering nulls as empty fields.
func WriteCSVFile(path string, t *Table) error {
	return table.WriteCSVFile(path, t, table.WriteOptions{})
}

// WriteJSONL writes a table as JSON Lines (one object per row, keys sorted,
// null cells omitted) — the machine-readable output of the fuzzyfd CLI's
// -json flag, and byte for byte the rows fuzzyfdd streams from a result.
func WriteJSONL(w io.Writer, t *Table) error {
	return table.WriteJSONL(w, t)
}

// ReadJSONL parses a JSON Lines stream (one object per row, missing keys
// and null members null) into a table with the given name — the inverse of
// WriteJSONL, and the table encoding the fuzzyfdd server ingests. A line that is not a JSON
// object, null included, is an error naming the line.
func ReadJSONL(r io.Reader, name string) (*Table, error) {
	return table.ReadJSONL(r, name)
}

// JSONLLimits bounds a JSONL parse: MaxLineBytes caps one line (default
// 4 MiB), MaxRows caps the row count (0 or negative = unlimited). Servers ingesting
// untrusted streams should set both.
type JSONLLimits = table.JSONLLimits

// ReadJSONLLimited is ReadJSONL with explicit parse limits. Parse errors
// name the 1-based offending line.
func ReadJSONLLimited(r io.Reader, name string, lim JSONLLimits) (*Table, error) {
	return table.ReadJSONLLimited(r, name, lim)
}

// Option configures Integrate and MatchValues.
type Option func(*options) error

type options struct {
	cfg core.Config
	fs  wal.FS
}

// WithModel selects the embedding model by name (ModelMistral by default).
func WithModel(name string) Option {
	return func(o *options) error {
		m, err := embed.New(name)
		if err != nil {
			return err
		}
		o.cfg.Embedder = m
		return nil
	}
}

// WithThreshold sets the value-matching threshold θ in (0, 1].
func WithThreshold(theta float64) Option {
	return func(o *options) error {
		if theta <= 0 || theta > 1 {
			return fmt.Errorf("fuzzyfd: threshold %v outside (0, 1]", theta)
		}
		o.cfg.Theta = theta
		return nil
	}
}

// WithEquiJoin disables value matching, producing the regular (ALITE-style)
// Full Disjunction baseline.
func WithEquiJoin() Option {
	return func(o *options) error {
		o.cfg.Method = core.MethodEquiFD
		return nil
	}
}

// WithContentAlignment aligns columns by content instead of by identical
// names — for integration sets whose headers are missing or unreliable.
// useHeaders additionally blends header text into the alignment when
// headers exist but are noisy.
func WithContentAlignment(useHeaders bool) Option {
	return func(o *options) error {
		o.cfg.AlignContent = true
		o.cfg.UseHeaders = useHeaders
		return nil
	}
}

// WithMatchWorkers sets the concurrency of the value-matching phase's
// embedding warm-up (default: runtime.GOMAXPROCS(0)). It does not change
// the rest of that phase — column sets matched concurrently, each round's
// candidate pairs scored in parallel — nor the FD closure: both always use
// runtime.GOMAXPROCS(0) CPUs.
func WithMatchWorkers(workers int) Option {
	return func(o *options) error {
		if workers < 1 {
			return fmt.Errorf("fuzzyfd: match workers %d < 1", workers)
		}
		o.cfg.MatchWorkers = workers
		return nil
	}
}

// WithMemoryBudget aborts integration with ErrMemoryBudget if the Full
// Disjunction's estimated resident memory — the interned value dictionary
// plus the live closure tuples under a linear per-tuple cost model — exceeds
// n bytes — the one safety valve for pathological join blowup, sized in
// bytes an operator can provision for. The estimate is a stable model, not
// allocator-exact accounting (FDStats.MemoryBytes reports it). n must be at
// least 1; to run unbounded, omit the option.
func WithMemoryBudget(n int64) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("fuzzyfd: memory budget %d < 1", n)
		}
		o.cfg.MemoryBudget = n
		return nil
	}
}

// WithProgress registers a callback observing the integration as it runs:
// phase transitions (align, match, fd — start and completion with elapsed
// time) and, during the FD phase, every connected component's closure
// completing with its closure tuple count. Events arrive from the
// integrating goroutine in order; the callback must be fast and must not
// call back into the Session being integrated.
func WithProgress(fn func(ProgressEvent)) Option {
	return func(o *options) error {
		if fn == nil {
			return fmt.Errorf("fuzzyfd: nil progress callback")
		}
		o.cfg.Progress = fn
		return nil
	}
}

func buildOpts(opts []Option) (*options, error) {
	var o options
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	return &o, nil
}

func buildOptions(opts []Option) (core.Config, error) {
	o, err := buildOpts(opts)
	if err != nil {
		return core.Config{}, err
	}
	return o.cfg, nil
}

// Integrate applies Fuzzy Full Disjunction (or the equi-join baseline, with
// WithEquiJoin) to the integration set. Input tables are not modified. It
// is IntegrateContext with context.Background().
func Integrate(tables []*Table, opts ...Option) (*Result, error) {
	return IntegrateContext(context.Background(), tables, opts...)
}

// IntegrateContext is Integrate under a context. Cancellation and deadline
// expiry are observed at phase boundaries, inside the match phase's
// embedding warm-up and assignment rounds, and inside the Full Disjunction
// closure — at component boundaries and periodically within a component,
// so even one huge component is interrupted promptly. A canceled run
// returns an error matching ErrCanceled (and the context's error), wrapped
// in a *PhaseError naming the interrupted phase. With an uncanceled
// context the result is byte-identical to Integrate's.
func IntegrateContext(ctx context.Context, tables []*Table, opts ...Option) (*Result, error) {
	cfg, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return core.IntegrateContext(ctx, tables, cfg)
}

// Session integrates a growing set of tables incrementally. Where
// Integrate rebuilds everything per call, a Session keeps its value
// dictionary, embedding cache, match clusters, and Full Disjunction index
// alive between calls, so re-integrating after adding a batch of tables
// only closes the part of the result the new tuples actually touch:
//
//	s, _ := fuzzyfd.NewSession()
//	s.Add(t1, t2)
//	res, _ := s.Integrate()          // full computation
//	s.Add(t3)
//	res, _ = s.Integrate()           // only components touched by t3 re-close
//
// Every Integrate result is byte-identical — tables and provenance — to a
// one-shot Integrate over all tables added so far; see Result.FDStats
// (ReusedValues, DirtyComponents, ReclosedTuples) for how much work the
// session skipped. Added tables must not be modified afterwards.
//
// A Session is safe for concurrent use, and its Integrate calls run one at
// a time: each integrates exactly the tables added before its turn. Inside
// a call, a hub closing from scratch is closed across runtime.GOMAXPROCS(0)
// CPUs; a cached closure is extended in place, sequentially, whatever the
// size of the delta. Add, Append, Tables, Stats, Last, Degraded and Close
// never wait on a running integration, and neither does a StreamContext
// with nothing to integrate.
// Results are immutable once returned, so a reader may keep a Result while
// other goroutines integrate on.
type Session struct {
	s *core.Session
}

// NewSession prepares an empty incremental integration session. It accepts
// the same options as Integrate.
func NewSession(opts ...Option) (*Session, error) {
	cfg, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return &Session{s: core.NewSession(cfg)}, nil
}

// Durability configures a durable session opened with OpenSession. The
// write path itself is fixed: every acknowledged append is one fsynced
// frame of the session's log, and nothing else is written.
type Durability struct {
	// FS is the filesystem the session's log lives on. Nil means the
	// operating system's. Fault-injecting filesystems
	// (wal.NewFlakyFS, wal.NewMemFS) plug in here for resilience testing.
	FS wal.FS
}

// WithDurability sets the filesystem of a session opened with OpenSession.
// It has no effect on NewSession or one-shot Integrate calls.
func WithDurability(d Durability) Option {
	return func(o *options) error {
		o.fs = d.FS
		return nil
	}
}

// OpenSession opens a crash-safe session persisted under dir, creating the
// directory if needed and recovering the prior state otherwise. Every
// Append (and Add) is written to a checksummed log and fsync'd before it is
// acknowledged, and the log is all the session writes. Recovery after a
// crash keeps every acknowledged add and loses at most the one a crash
// interrupted: a torn final log record is truncated, never an error. A
// corrupt record with acknowledged records after it fails the open, naming
// the log and the offset. The directory holds the log alone: one holding
// anything else, as the layouts earlier versions wrote do, fails the open
// naming that entry, and is left as it is. Only the tables are persisted: the first Integrate after a
// reopen computes the result from them, as a fresh session fed the same
// tables would, and later Integrates are incremental again.
//
// The recovered session accepts the same options as NewSession; pass the
// ones it was created with to get the same result.
func OpenSession(dir string, opts ...Option) (*Session, error) {
	o, err := buildOpts(opts)
	if err != nil {
		return nil, err
	}
	s, err := core.OpenSession(o.cfg, dir, o.fs)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Add appends tables to the session's integration set without computing
// anything; the next Integrate folds them in. On a durable session a
// persistence failure cannot be reported here and instead fails every
// later Integrate; durable callers should prefer Append.
func (s *Session) Add(tables ...*Table) { s.s.Add(tables...) }

// Append is Add with the durability error surfaced: on a durable session
// the batch is logged and fsync'd before it is acknowledged, and an error
// means the batch is neither on disk nor in the integration set — safe to
// retry. On an in-memory session it never fails.
func (s *Session) Append(tables ...*Table) error { return s.s.Append(tables...) }

// Close releases a durable session's log; the session afterwards rejects
// new adds but still serves reads. It writes nothing: every acknowledged
// add is already on disk. In-memory sessions only reject further adds.
// Close is idempotent.
func (s *Session) Close() error { return s.s.Close() }

// Durable reports whether the session persists its adds (true exactly for
// OpenSession sessions).
func (s *Session) Durable() bool { return s.s.Durable() }

// Degraded reports whether a durable session's log has given up on its
// filesystem: non-nil means writes are being rejected with an error
// matching ErrDegraded while reads keep working. In-memory and closed
// sessions are never degraded.
func (s *Session) Degraded() error { return s.s.Degraded() }

// Tables reports the number of tables added so far.
func (s *Session) Tables() int { return s.s.Tables() }

// Last returns the result of the most recent successful Integrate, or nil
// before the first one — a snapshot read that does not block concurrent
// integrations already holding the lock (it waits only for the lock, never
// recomputes).
func (s *Session) Last() *Result { return s.s.Last() }

// Stats reports the Full Disjunction statistics of the most recent
// successful Integrate (the zero FDStats before the first one).
func (s *Session) Stats() FDStats {
	if last := s.s.Last(); last != nil {
		return last.FDStats
	}
	return FDStats{}
}

// Integrate computes the integration of every table added so far, reusing
// the session's cached state for everything the newly added tables do not
// touch.
//
// The rows of the returned table (and its provenance lists) are shared with
// the session's cached output and with the results of later calls: rows of
// components an update did not touch are not decoded again. Treat a session
// Result as read-only — editing a cell in place corrupts every later
// integration — and copy rows you need to change. One-shot Integrate
// results are the caller's own.
func (s *Session) Integrate() (*Result, error) { return s.s.Integrate() }

// IntegrateContext is Integrate under a context, with the cancellation
// semantics of the package-level IntegrateContext. A canceled integration
// leaves the session consistent: cached state the run did not reach is
// kept, and the FD index keeps the delta it ingested marked dirty. A later
// call with a live context therefore closes that delta, completes normally
// and stays byte-identical to a one-shot run. The Result is read-only, as
// for Integrate.
func (s *Session) IntegrateContext(ctx context.Context) (*Result, error) {
	return s.s.IntegrateContext(ctx)
}

// StreamContext calls emit with every row of the session's current Result,
// in Integrate's order, together with the integrated schema and the row's
// provenance, and returns that Result. The current Result is Last when no
// table was added since the last Integrate; otherwise StreamContext
// integrates first, exactly as IntegrateContext does, and the new Result
// becomes Last. Either way the rows are byte-identical to a one-shot
// Integrate over every table added so far, so the order is deterministic
// and the same at every GOMAXPROCS.
//
// emit runs on the calling goroutine with no session lock held: it may
// call back into the session, and a slow consumer holds up no other add,
// integration or stream. An emit error or cancellation stops the stream
// and is returned; the session is unaffected. The Result is read-only, as
// for Integrate.
func (s *Session) StreamContext(ctx context.Context, emit func(schema Schema, row Row, prov []TID) error) (*Result, error) {
	return s.s.StreamContext(ctx, emit)
}

// Integrations reports the number of completed Integrate calls.
func (s *Session) Integrations() int { return s.s.Integrations() }

// RewriteCacheHits reports how many table rewrites the fuzzy match stage
// served from the session's memoized rewritten views instead of
// clone-and-rewrite passes — the match-stage counterpart of the FDStats
// reuse counters, surfaced for metrics bridges and diagnostics.
func (s *Session) RewriteCacheHits() int { return s.s.RewriteCacheHits() }

// MatchValues runs only the fuzzy value-matching component over a set of
// aligning columns (each a list of cell values), returning the disjoint
// value clusters with elected representatives — the building block for
// custom integration flows. The embedding warm-up honors WithMatchWorkers,
// as in the full pipeline.
func MatchValues(columns [][]string, opts ...Option) ([]ValueCluster, error) {
	return MatchValuesContext(context.Background(), columns, opts...)
}

// MatchValuesContext is MatchValues under a context: cancellation is
// observed between embedding warm-up values and between sequential
// assignment rounds, returning an error matching ErrCanceled.
func MatchValuesContext(ctx context.Context, columns [][]string, opts ...Option) ([]ValueCluster, error) {
	cfg, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	emb := embed.Cached(cfg.ResolvedEmbedder(), embed.NewValueCache())
	m := &match.Matcher{Emb: emb, Opts: match.Options{Theta: cfg.Theta}}
	cols := make([]match.Column, len(columns))
	for i, c := range columns {
		cols[i] = match.NewColumn(fmt.Sprintf("col%d", i), c)
	}
	if values := match.DistinctValues(cols); len(values) > 0 {
		if err := embed.WarmContext(ctx, emb, values, cfg.ResolvedMatchWorkers()); err != nil {
			return nil, fd.Canceled(err)
		}
	}
	clusters, _, err := m.Match(ctx, cols)
	if err != nil {
		return nil, markCanceled(err)
	}
	return clusters, nil
}

// markCanceled wraps context errors so they match ErrCanceled, passing
// every other error through.
func markCanceled(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fd.Canceled(err)
	}
	return err
}

// Models lists the available embedding model names, weakest tier first.
func Models() []string { return embed.ModelNames() }

// Candidate is one table-search result: a corpus table with its relevance
// score, and — for join search — the best-matching column pair.
type Candidate = discovery.Candidate

// DiscoverJoinable ranks corpus tables by how well some column joins a
// query column (value containment), returning the top k. This is the
// search step that precedes integration in the paper's pipeline; hand the
// discovered tables to Integrate.
func DiscoverJoinable(query *Table, corpus []*Table, k int, opts ...Option) ([]Candidate, error) {
	return DiscoverJoinableContext(context.Background(), query, corpus, k, opts...)
}

// DiscoverJoinableContext is DiscoverJoinable under a context, checked
// once per corpus table; a dead context returns an error matching
// ErrCanceled.
func DiscoverJoinableContext(ctx context.Context, query *Table, corpus []*Table, k int, opts ...Option) ([]Candidate, error) {
	return discover(ctx, query, corpus, k, opts, true)
}

// DiscoverUnionable ranks corpus tables by schema-level unionability with
// the query (column-content similarity), returning the top k.
func DiscoverUnionable(query *Table, corpus []*Table, k int, opts ...Option) ([]Candidate, error) {
	return DiscoverUnionableContext(context.Background(), query, corpus, k, opts...)
}

// DiscoverUnionableContext is DiscoverUnionable under a context, checked
// once per corpus table; a dead context returns an error matching
// ErrCanceled.
func DiscoverUnionableContext(ctx context.Context, query *Table, corpus []*Table, k int, opts ...Option) ([]Candidate, error) {
	return discover(ctx, query, corpus, k, opts, false)
}

func discover(ctx context.Context, query *Table, corpus []*Table, k int, opts []Option, join bool) ([]Candidate, error) {
	cfg, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	s := &discovery.Searcher{Emb: embed.Cached(cfg.ResolvedEmbedder(), embed.NewValueCache())}
	var cands []Candidate
	if join {
		cands, err = s.JoinablesContext(ctx, query, corpus, k)
	} else {
		cands, err = s.UnionablesContext(ctx, query, corpus, k)
	}
	if err != nil {
		return nil, markCanceled(err)
	}
	return cands, nil
}
