package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
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
// session's lifetime), the match clusters of every aligned column set
// (reused while the set's contents are unchanged), and the incremental
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
// time: IntegrateContext and Close hold runMu from preparation through
// publication, so each integration covers exactly the tables added before
// it took the lock. mu guards what Append and the read-side calls (Tables,
// Integrations, Last, RewriteCacheHits, StreamContext's check for pending
// tables) touch, and is released during the FD stage, so neither waits on
// a running integration's closures, nor observes half-updated session
// state. A published Result is never written to again, so a stream
// iterates Last without any lock.
type Session struct {
	cfg   Config
	emb   embed.Embedder
	cache *embed.ValueCache

	runMu sync.Mutex // one integration or Close at a time

	mu         sync.RWMutex
	tables     []*table.Table
	clusters   map[clusterDigest][]match.Cluster // aligned-column-set content -> clusters
	rewrites   map[*table.Table]rewriteEntry     // source table -> cached rewritten view
	idx        *fd.Index
	last       *Result
	lastTables int // tables integrated into last

	integrations int
	rewriteHits  int

	// Durable-session state (nil store for plain in-memory sessions; see
	// OpenSession in durable.go).
	store     *wal.Store
	snapEvery int
	closed    bool
	addErr    error // first Add batch lost to a log failure; poisons Integrate
	snapFails int   // automatic snapshots that failed (non-fatal; log stays authoritative)
	snapErr   error // most recent automatic-snapshot failure
}

// rewriteEntry caches one table's rewritten view, keyed by a digest of the
// rewrite maps that produced it. While a table's maps are unchanged, the
// cached view — the same pointer every Integrate — is handed to the FD
// index, whose verification step skips pointer-identical tables; a full
// cluster-cache hit therefore costs neither a table clone nor a
// re-projection of history.
type rewriteEntry struct {
	key clusterDigest
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
		clusters: make(map[clusterDigest][]match.Cluster),
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
// diagnostics (hit/miss counts across repeated integrations). The matcher
// looks each distinct value up once per column set and scores pairs from
// the vectors it got, so on dense-mode sets the lookups count values, not
// value pairs. The cache is itself safe for concurrent use.
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
// index's cached output and with later results (fd.Index.Update): read-only.
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
	s.mu.Lock()
	work, schema, res, err := s.prepare(ctx)
	tables := len(s.tables)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}

	// Stage 3: incremental equi-join Full Disjunction over the rewritten
	// view, with mu released so Append and readers proceed. The index
	// verifies that previously ingested rows still hold (a matching round
	// may have re-elected representatives) and closes only dirty
	// components.
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
	s.last, s.lastTables = res, tables
	s.mu.Unlock()

	// Durable sessions compact here, off the Append acknowledgement path. A
	// snapshot failure is non-fatal (the log remains authoritative) and is
	// retried next time.
	s.maybeSnapshot()
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

// prepare runs the pre-FD pipeline stages — column alignment and (for the
// fuzzy method) value matching with cell rewriting — returning the tables
// the FD stage should consume and a Result with the schema, match
// diagnostics, and stage timings filled in. Callers must hold s.runMu and
// s.mu.
func (s *Session) prepare(ctx context.Context) ([]*table.Table, fd.Schema, *Result, error) {
	if s.addErr != nil {
		return nil, fd.Schema{}, nil, fmt.Errorf("core: an added batch was lost by the session log: %w", s.addErr)
	}
	if len(s.tables) == 0 {
		return nil, fd.Schema{}, nil, ErrNoTables
	}
	if err := ctx.Err(); err != nil {
		return nil, fd.Schema{}, nil, phaseErr(PhaseAlign, err)
	}
	tables := s.tables
	res := &Result{ColumnClusters: make(map[int][]match.Cluster)}

	// Stage 1: column alignment. Content alignment re-runs over the whole
	// set (new tables can re-shape every column cluster), but its
	// embeddings come from the session cache.
	alignStart := time.Now()
	s.emit(ProgressEvent{Phase: PhaseAlign})
	var schema fd.Schema
	if s.cfg.AlignContent {
		aligner := &align.Aligner{
			Emb:        s.emb,
			Threshold:  s.cfg.AlignThreshold,
			UseHeaders: s.cfg.UseHeaders,
		}
		ar, err := aligner.Align(tables)
		if err != nil {
			return nil, fd.Schema{}, nil, phaseErr(PhaseAlign, err)
		}
		schema = ar.Schema(tables)
	} else {
		schema = fd.IdentitySchema(tables)
	}
	if err := schema.Validate(tables); err != nil {
		return nil, fd.Schema{}, nil, err
	}
	res.Schema = schema
	res.Timings.Align = time.Since(alignStart)
	s.emit(ProgressEvent{Phase: PhaseAlign, Done: true, Elapsed: res.Timings.Align})

	// Stage 2 (fuzzy only): value matching and cell rewriting, with
	// cluster reuse per aligned column set.
	work := tables
	if s.cfg.Method == MethodFuzzyFD {
		matchStart := time.Now()
		s.emit(ProgressEvent{Phase: PhaseMatch})
		rewritten, err := s.matchAndRewrite(ctx, tables, schema, res)
		if err != nil {
			return nil, fd.Schema{}, nil, err
		}
		work = rewritten
		res.Timings.Match = time.Since(matchStart)
		s.emit(ProgressEvent{Phase: PhaseMatch, Done: true, Elapsed: res.Timings.Match})
	}
	return work, schema, res, nil
}

// matchAndRewrite runs the Match Values component over every aligned
// column set with at least two source columns and returns rewritten copies
// of the tables. Cluster results are cached on the set's exact contents:
// a column set untouched by newly added tables reuses its clusters without
// re-running assignment.
func (s *Session) matchAndRewrite(ctx context.Context, tables []*table.Table, schema fd.Schema, res *Result) ([]*table.Table, error) {
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

	matcher := &match.Matcher{
		Emb:  s.emb,
		Opts: match.Options{Theta: s.cfg.Theta, Mode: s.cfg.MatchMode},
	}

	// Build every matchable column set up front, then pre-embed all their
	// distinct values concurrently; matching then hits the embedder's
	// cache. Warming concurrency is the match phase's own knob
	// (Config.MatchWorkers, default NumCPU). Values already in the session
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
			name := fmt.Sprintf("%s.%s", tables[rf.table].Name, tables[rf.table].Columns[rf.col])
			cols[k] = match.NewColumn(name, tables[rf.table].ColumnValues(rf.col))
		}
		sets = append(sets, columnSet{out: out, refs: refs, cols: cols})
		allCols = append(allCols, cols...)
	}
	if values := match.DistinctValues(allCols); len(values) > 0 {
		if err := embed.WarmContext(ctx, s.emb, values, s.cfg.ResolvedMatchWorkers()); err != nil {
			return nil, phaseErr(PhaseMatch, err)
		}
	}

	newClusters := make(map[clusterDigest][]match.Cluster, len(sets))
	var allStats []match.Stats
	plans := make([][]colRewrite, len(tables))
	for _, cs := range sets {
		key := clusterKey(cs.cols)
		clusters, ok := s.clusters[key]
		var stats match.Stats
		if ok {
			// No assignment ran: the assignment counters stay zero.
			stats = match.Summarize(clusters)
		} else {
			var err error
			clusters, stats, err = matcher.MatchWithStats(ctx, cs.cols)
			if err != nil {
				return nil, phaseErr(PhaseMatch, fmt.Errorf("output column %q: %w", schema.Columns[cs.out], err))
			}
		}
		newClusters[key] = clusters
		res.ColumnClusters[cs.out] = clusters
		allStats = append(allStats, stats)

		maps := match.RewriteMaps(clusters, len(cs.refs))
		for k, rf := range cs.refs {
			plans[rf.table] = append(plans[rf.table], colRewrite{col: rf.col, m: maps[k]})
		}
	}
	// Replace, not merge: sets no longer present (their contents changed)
	// must not pin stale clusters forever.
	s.clusters = newClusters
	res.MatchStats = combineStats(allStats)

	// Materialize each table's rewritten view, memoized per (table,
	// rewrite-map fingerprint): while a table's maps are stable the cached
	// clone — same pointer every call — is reused, so a full cluster-cache
	// hit no longer clones and re-rewrites the whole accumulated history,
	// and the FD index's row verification skips the unchanged tables
	// entirely. A table none of whose values rewrite passes through as the
	// original.
	rewritten := make([]*table.Table, len(tables))
	newRewrites := make(map[*table.Table]rewriteEntry, len(tables))
	for i, t := range tables {
		key, live := rewritePlanKey(t, plans[i])
		if live == 0 {
			rewritten[i] = t
			continue
		}
		if e, ok := s.rewrites[t]; ok && e.key == key {
			rewritten[i] = e.out
			newRewrites[t] = e
			s.rewriteHits++
			continue
		}
		out := t.Clone()
		for _, cr := range plans[i] {
			applyRewrite(out, cr.col, cr.m)
		}
		rewritten[i] = out
		newRewrites[t] = rewriteEntry{key: key, out: out}
	}
	// Replace, not merge, for the same reason as the cluster cache.
	s.rewrites = newRewrites
	return rewritten, nil
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
func rewritePlanKey(t *table.Table, plan []colRewrite) (clusterDigest, int) {
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
	var out clusterDigest
	h.Sum(out[:0])
	return out, live
}

// clusterDigest fingerprints an aligned column set's exact contents in
// constant space (the cache must not retain a copy of every column's
// text).
type clusterDigest [sha256.Size]byte

// clusterKey hashes an aligned column set — per-column distinct values
// and counts, in order. Clusters depend on nothing else (column names are
// diagnostics only), so equal keys yield equal clusters. Lengths and
// counts are varint-prefixed, making the hashed encoding injective up to
// hash collision.
func clusterKey(cols []match.Column) clusterDigest {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	writeInt := func(n int) {
		h.Write(buf[:binary.PutUvarint(buf[:], uint64(n))])
	}
	for _, c := range cols {
		writeInt(len(c.Values))
		for i, v := range c.Values {
			writeInt(len(v))
			io.WriteString(h, v)
			writeInt(c.Counts[i])
		}
	}
	var out clusterDigest
	h.Sum(out[:0])
	return out
}
