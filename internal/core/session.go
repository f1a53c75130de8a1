package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyfd/internal/align"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/match"
	"fuzzyfd/internal/table"
	"fuzzyfd/internal/wal"
)

// Session is the resumable form of the pipeline: a long-lived object that
// owns the state every one-shot Integrate call used to rebuild from
// scratch — the embedding cache (values embed once per model tier for the
// session's lifetime), one matcher memo per aligned column set (each
// value's record, and the assignment rounds of the latest integration,
// replayed while their inputs are unchanged: a column set that gains a
// column re-runs only the rounds the new column changes), and the incremental
// Full Disjunction index with its append-only dictionary, posting and
// signature indexes, and per-component closure results.
//
// Add appends tables to the integration set; Integrate computes the Full
// Disjunction of everything added so far. Each Integrate closes only the
// delta: tuples from new tables probe the existing component structure and
// only the components they touch are re-closed (see fd.Index). The result
// of every Integrate is byte-identical — tables and provenance — to a
// one-shot Integrate over the accumulated set.
//
// Tables handed to Add are never mutated, but the session keeps references
// to them; the caller must not modify them afterwards.
//
// A Session is safe for concurrent use, and runs one integration at a
// time: IntegrateContext holds runMu from preparation through publication.
// It reads the table list under mu once, at the start, so each integration
// covers exactly the tables added before it; alignment, matching and the FD
// stage then run under runMu alone. mu guards what Append and the
// read-side calls (Tables, Integrations, Last, RewriteCacheHits, Degraded,
// StreamContext's check for pending tables) touch, so none of them waits on
// a running integration, nor observes half-updated session state. A
// published Result is never written to again, so a stream iterates Last
// without any lock.
type Session struct {
	cfg   Config
	emb   embed.Embedder
	cache *embed.ValueCache

	runMu    sync.Mutex                    // one integration at a time
	memos    map[int]*match.Memo           // output column -> its set's memo, used under runMu
	rewrites map[*table.Table]rewriteEntry // source table -> cached rewritten view, used under runMu
	idx      *fd.Index

	mu         sync.RWMutex
	tables     []*table.Table
	last       *Result
	lastTables int // tables integrated into last

	integrations int
	rewriteHits  int

	// Durable-session state (nil store for plain in-memory sessions; see
	// OpenSession in durable.go).
	store  *wal.Store
	closed bool
	addErr error // first Add batch lost to a log failure; poisons Integrate
}

// rewriteEntry caches one table's rewritten view, keyed by a digest of the
// rewrite maps that produced it. While a table's maps are unchanged, the
// cached view — the same pointer every Integrate — is handed to the FD
// index, whose verification step skips pointer-identical tables; a table
// whose clusters did not change therefore costs neither a table clone nor
// a re-projection of history.
type rewriteEntry struct {
	key planDigest
	out *table.Table
}

// NewSession prepares an empty session with the given configuration. The
// zero Config is the paper's Fuzzy FD defaults, as with Integrate.
func NewSession(cfg Config) *Session {
	cache := embed.NewValueCache()
	return &Session{
		cfg:      cfg,
		cache:    cache,
		emb:      embed.Cached(cfg.ResolvedEmbedder(), cache),
		memos:    make(map[int]*match.Memo),
		rewrites: make(map[*table.Table]rewriteEntry),
		idx:      fd.NewIndex(),
	}
}

// Add appends tables to the session's integration set. It performs no
// computation; the next Integrate folds the new tables in.
//
// On a durable session Add must persist the batch and has no way to report
// a persistence failure, so the first failure is remembered and surfaced by
// every later Integrate — the batch was dropped, and silently integrating
// without it would misreport the result. Durable callers should prefer
// Append, which returns the error.
func (s *Session) Add(tables ...*table.Table) {
	if err := s.Append(tables...); err != nil {
		s.mu.Lock()
		if s.addErr == nil {
			s.addErr = err
		}
		s.mu.Unlock()
	}
}

// Tables reports the number of tables added so far.
func (s *Session) Tables() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables)
}

// Integrations reports the number of completed Integrate calls.
func (s *Session) Integrations() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.integrations
}

// Last returns the result of the most recent successful Integrate, or nil
// before the first one. The result is a snapshot — later Integrates build
// fresh Results rather than mutating old ones — so readers may hold it
// while other goroutines keep integrating.
func (s *Session) Last() *Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.last
}

// EmbeddingCache exposes the session's value-embedding cache, for
// diagnostics (hit/miss counts across repeated integrations). It is the
// session's only embedding memo: each miss embeds once, and each column
// set's matcher memo looks each of its distinct values up once per
// session, so the lookups count values, not value pairs. The cache is
// itself safe for concurrent use, which concurrently matched sets rely on.
func (s *Session) EmbeddingCache() *embed.ValueCache { return s.cache }

// emit delivers a progress event, if a callback is configured.
func (s *Session) emit(ev ProgressEvent) {
	if s.cfg.Progress != nil {
		s.cfg.Progress(ev)
	}
}

// Integrate computes the configured pipeline over every table added so
// far, reusing the session's cached state wherever the input still
// matches it. The result's rows and provenance lists are shared with the FD
// index's cached output and with later results
// (fd.Index.UpdateContext): read-only.
func (s *Session) Integrate() (*Result, error) { return s.IntegrateContext(context.Background()) }

// IntegrateContext is Integrate under a context: cancellation and
// deadlines are observed at phase boundaries, inside the match phase, and
// inside the FD closure (see IntegrateContext at package level). The
// session stays consistent after a canceled run — cached state the run did
// not reach is kept, and the FD index keeps its ingested delta marked
// dirty — so a later call with a live context completes normally.
func (s *Session) IntegrateContext(ctx context.Context) (*Result, error) {
	start := time.Now()
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.mu.RLock()
	tables, addErr := s.tables, s.addErr
	s.mu.RUnlock()
	if addErr != nil {
		return nil, fmt.Errorf("core: an added batch was lost by the session log: %w", addErr)
	}
	work, schema, res, hits, err := s.prepare(ctx, tables)
	if err != nil {
		return nil, err
	}

	// Stage 3: incremental equi-join Full Disjunction over the rewritten
	// view. The index verifies that previously ingested rows still hold (a
	// matching round may have re-elected representatives) and closes only
	// dirty components.
	fdStart := time.Now()
	s.emit(ProgressEvent{Phase: PhaseFD})
	fdRes, err := s.idx.UpdateContext(ctx, work, schema, s.cfg.fdOptions())
	if err != nil {
		return nil, phaseErr(PhaseFD, err)
	}
	res.Table = fdRes.Table
	res.Prov = fdRes.Prov
	res.FDStats = fdRes.Stats
	res.Timings.FD = time.Since(fdStart)
	res.Timings.Total = time.Since(start)
	s.emit(ProgressEvent{Phase: PhaseFD, Done: true, Elapsed: res.Timings.FD})

	s.mu.Lock()
	s.integrations++
	s.rewriteHits += hits
	s.last, s.lastTables = res, len(tables)
	s.mu.Unlock()
	return res, nil
}

// StreamContext calls emit for every row of the session's current Result,
// in Integrate's order, with the integrated schema and the row's
// provenance, and returns that Result. The current Result is Last when no
// table was added since it was built; otherwise StreamContext integrates
// first, and the new Result becomes Last as any other does. emit runs on
// the calling goroutine with no session lock held, so it may call back
// into the session, and a slow consumer holds up no integration. An emit
// error or cancellation stops the stream and is returned.
func (s *Session) StreamContext(ctx context.Context, emit func(schema fd.Schema, row table.Row, prov []fd.TID) error) (*Result, error) {
	res := s.current()
	if res == nil {
		var err error
		if res, err = s.IntegrateContext(ctx); err != nil {
			return nil, err
		}
	}
	for row, prov := range res.Rows() {
		if err := ctx.Err(); err != nil {
			return nil, fd.Canceled(err)
		}
		if err := emit(res.Schema, row, prov); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// current returns Last when it integrates every table added so far, and
// nil when an integration is due.
func (s *Session) current() *Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.addErr != nil || s.lastTables != len(s.tables) {
		return nil
	}
	return s.last
}

// prepare runs the pre-FD pipeline stages over tables — column alignment
// and (for the fuzzy method) value matching with cell rewriting — returning
// the tables the FD stage should consume, a Result with the schema, match
// diagnostics, and stage timings filled in, and the rewrites served from
// the session's cached views. Callers must hold s.runMu and not s.mu.
func (s *Session) prepare(ctx context.Context, tables []*table.Table) ([]*table.Table, fd.Schema, *Result, int, error) {
	if len(tables) == 0 {
		return nil, fd.Schema{}, nil, 0, ErrNoTables
	}
	if err := ctx.Err(); err != nil {
		return nil, fd.Schema{}, nil, 0, phaseErr(PhaseAlign, err)
	}
	res := &Result{ColumnClusters: make(map[int][]match.Cluster)}

	// Stage 1: column alignment. Content alignment re-runs over the whole
	// set (new tables can re-shape every column cluster), but its
	// embeddings come from the session cache.
	alignStart := time.Now()
	s.emit(ProgressEvent{Phase: PhaseAlign})
	var schema fd.Schema
	if s.cfg.AlignContent {
		aligner := &align.Aligner{Emb: s.emb, UseHeaders: s.cfg.UseHeaders}
		ar, err := aligner.Align(tables)
		if err != nil {
			return nil, fd.Schema{}, nil, 0, phaseErr(PhaseAlign, err)
		}
		schema = ar.Schema(tables)
	} else {
		schema = fd.IdentitySchema(tables)
	}
	if err := schema.Validate(tables); err != nil {
		return nil, fd.Schema{}, nil, 0, err
	}
	res.Schema = schema
	res.Timings.Align = time.Since(alignStart)
	s.emit(ProgressEvent{Phase: PhaseAlign, Done: true, Elapsed: res.Timings.Align})

	// Stage 2 (fuzzy only): value matching and cell rewriting, replaying
	// the assignment rounds whose inputs are unchanged.
	work, hits := tables, 0
	if s.cfg.Method == MethodFuzzyFD {
		matchStart := time.Now()
		s.emit(ProgressEvent{Phase: PhaseMatch})
		rewritten, h, err := s.matchAndRewrite(ctx, tables, schema, res)
		if err != nil {
			return nil, fd.Schema{}, nil, 0, err
		}
		work, hits = rewritten, h
		res.Timings.Match = time.Since(matchStart)
		s.emit(ProgressEvent{Phase: PhaseMatch, Done: true, Elapsed: res.Timings.Match})
	}
	return work, schema, res, hits, nil
}

// matchAndRewrite runs the Match Values component over every aligned
// column set with at least two source columns and returns rewritten copies
// of the tables, with the number of them served from cached views. Each
// set is matched on its own memo, kept across integrations under the set's
// output column: a round whose inputs an earlier integration met replays
// its pairs, so a set untouched by newly added tables runs no assignment,
// and one that gained a column re-runs only from the first round whose
// inputs changed. The sets are independent, so up to GOMAXPROCS of them
// match at once; their results are applied in set order, so the outcome is
// the sequential one.
func (s *Session) matchAndRewrite(ctx context.Context, tables []*table.Table, schema fd.Schema, res *Result) ([]*table.Table, int, error) {
	// Invert the schema: output column -> contributing (table, column)
	// refs in table order (the order the paper's sequential matching
	// consumes them).
	type ref struct{ table, col int }
	sources := make([][]ref, len(schema.Columns))
	for ti := range schema.Mapping {
		for ci, out := range schema.Mapping[ti] {
			sources[out] = append(sources[out], ref{table: ti, col: ci})
		}
	}

	// Build every matchable column set up front, then pre-embed all their
	// distinct values concurrently; matching then hits the embedder's
	// cache. Warming concurrency is the match phase's own knob
	// (Config.MatchWorkers, default GOMAXPROCS). Values already in the session
	// cache cost one lookup.
	type columnSet struct {
		out  int
		refs []ref
		cols []match.Column
	}
	var sets []columnSet
	var allCols []match.Column
	for out, refs := range sources {
		if len(refs) < 2 {
			continue
		}
		cols := make([]match.Column, len(refs))
		for k, rf := range refs {
			t := tables[rf.table]
			values, counts := t.DistinctColumnValues(rf.col)
			cols[k] = match.Column{Name: t.Name + "." + t.Columns[rf.col], Values: values, Counts: counts}
		}
		sets = append(sets, columnSet{out: out, refs: refs, cols: cols})
		allCols = append(allCols, cols...)
	}
	if values := match.DistinctValues(allCols); len(values) > 0 {
		if err := embed.WarmContext(ctx, s.emb, values, s.cfg.ResolvedMatchWorkers()); err != nil {
			return nil, 0, phaseErr(PhaseMatch, err)
		}
	}

	memos := make(map[int]*match.Memo, len(sets))
	for _, cs := range sets {
		memo := s.memos[cs.out]
		if memo == nil {
			memo = match.NewMemo()
		}
		memos[cs.out] = memo
	}
	type matched struct {
		clusters []match.Cluster
		stats    match.Stats
		err      error
	}
	results := make([]matched, len(sets))
	eachSet(len(sets), func(i int) {
		cs := sets[i]
		matcher := &match.Matcher{Emb: s.emb, Opts: match.Options{Theta: s.cfg.Theta}, Memo: memos[cs.out]}
		r := &results[i]
		r.clusters, r.stats, r.err = matcher.Match(ctx, cs.cols)
	})

	var allStats []match.Stats
	plans := make([][]colRewrite, len(tables))
	for i, cs := range sets {
		r := results[i]
		if r.err != nil {
			return nil, 0, phaseErr(PhaseMatch, fmt.Errorf("output column %q: %w", schema.Columns[cs.out], r.err))
		}
		res.ColumnClusters[cs.out] = r.clusters
		allStats = append(allStats, r.stats)

		maps := match.RewriteMaps(r.clusters, len(cs.refs))
		for k, rf := range cs.refs {
			plans[rf.table] = append(plans[rf.table], colRewrite{col: rf.col, m: maps[k]})
		}
	}
	// Memos of sets this integration did not match, and rounds it did not
	// meet, are dropped.
	for _, memo := range memos {
		memo.Sweep()
	}
	s.memos = memos
	res.MatchStats = combineStats(allStats)

	// Materialize each table's rewritten view, memoized per (table,
	// rewrite-map fingerprint): while a table's maps are stable the cached
	// clone — same pointer every call — is reused, so an integration whose
	// clusters did not change clones and re-rewrites no history,
	// and the FD index's row verification skips the unchanged tables
	// entirely. A table none of whose values rewrite passes through as the
	// original.
	rewritten := make([]*table.Table, len(tables))
	newRewrites := make(map[*table.Table]rewriteEntry, len(tables))
	hits := 0
	for i, t := range tables {
		key, live := rewritePlanKey(t, plans[i])
		if live == 0 {
			rewritten[i] = t
			continue
		}
		if e, ok := s.rewrites[t]; ok && e.key == key {
			rewritten[i] = e.out
			newRewrites[t] = e
			hits++
			continue
		}
		out := t.Clone()
		for _, cr := range plans[i] {
			applyRewrite(out, cr.col, cr.m)
		}
		rewritten[i] = out
		newRewrites[t] = rewriteEntry{key: key, out: out}
	}
	// Replace, not merge: tables whose plan changed must not pin stale
	// views.
	s.rewrites = newRewrites
	return rewritten, hits, nil
}

// RewriteCacheHits reports how many table rewrites were served from the
// session's memoized rewritten views instead of clone-and-rewrite passes —
// the diagnostic counterpart of EmbeddingCache for the fuzzy match stage.
func (s *Session) RewriteCacheHits() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rewriteHits
}

// colRewrite is one column's value-rewrite map within a table's plan.
type colRewrite struct {
	col int
	m   map[string]string
}

// rewritePlanKey fingerprints the effective rewrites a plan applies to one
// table — per column, the non-identity value mappings in sorted order,
// plus the table's row count as a guard — and reports how many such
// mappings there are (0 means the plan is a no-op for this table).
func rewritePlanKey(t *table.Table, plan []colRewrite) (planDigest, int) {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	writeInt := func(n int) {
		h.Write(buf[:binary.PutUvarint(buf[:], uint64(n))])
	}
	writeStr := func(v string) {
		writeInt(len(v))
		io.WriteString(h, v)
	}
	live := 0
	writeInt(len(t.Rows))
	for _, cr := range plan {
		pairs := make([][2]string, 0, len(cr.m))
		for from, to := range cr.m {
			if from != to {
				pairs = append(pairs, [2]string{from, to})
			}
		}
		if len(pairs) == 0 {
			continue
		}
		live += len(pairs)
		sort.Slice(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
		writeInt(cr.col)
		writeInt(len(pairs))
		for _, p := range pairs {
			writeStr(p[0])
			writeStr(p[1])
		}
	}
	var out planDigest
	h.Sum(out[:0])
	return out, live
}

// planDigest fingerprints a table's rewrite plan in constant space (the
// cache must not retain a copy of every map).
type planDigest [sha256.Size]byte

// eachSet calls f(i) for every i in [0, n) on a pool of up to GOMAXPROCS
// workers, which take the indexes in order, and returns once every call
// has. The calling goroutine is one of the workers, so with one worker the
// calls run in order and no goroutine is started.
func eachSet(n int, f func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(i)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
