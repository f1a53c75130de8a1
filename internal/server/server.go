// Package server implements fuzzyfdd, the long-lived integration daemon:
// named multi-tenant sessions over the public fuzzyfd API, batched
// ingestion that coalesces concurrent table-adds into single incremental
// integrations, delta streaming of results as JSON Lines and progress as
// Server-Sent Events, Prometheus-format metrics, and graceful drain.
//
// The package is deliberately a thin serving shell: every integration
// concept — sessions, incremental re-closure, streaming, budgets, stats —
// comes from the fuzzyfd package, and the server adds only what a daemon
// needs (a registry with tenant limits, request coalescing, fan-out, and
// lifecycle). Handlers speak plain net/http; the daemon binary in
// cmd/fuzzyfdd wires signals and flags around it.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyfd"
	"fuzzyfd/internal/wal"
)

// Config bounds and defaults for a Server. The zero value is usable:
// defaults are filled by New.
type Config struct {
	// MaxSessions caps live sessions; creating beyond it returns 429.
	// Default 64.
	MaxSessions int
	// IdleTTL evicts sessions with no requests for this long. Zero
	// disables eviction.
	IdleTTL time.Duration
	// TupleBudget is the default per-session Full Disjunction tuple
	// budget (fuzzyfd.WithTupleBudget); zero runs unbounded. A session's
	// creation request may lower it but not exceed it.
	TupleBudget int
	// Workers is the default fuzzyfd.WithParallelFD worker count for new
	// sessions; zero leaves the closure sequential.
	Workers int
	// DataDir, when set, makes sessions durable: each one is backed by a
	// write-ahead log and snapshots under DataDir/<escaped-name>, survives
	// a daemon restart, and is lazily reopened on its first request.
	DataDir string
	// RequestTimeout bounds ingestion and result requests; a request whose
	// integration has not completed in time gets 504 (the coalesced
	// integration itself keeps running and lands in the session). Zero
	// leaves requests bounded only by the client.
	RequestTimeout time.Duration
	// MaxLineBytes caps one JSONL line on ingestion (0: the table package
	// default of 4 MiB).
	MaxLineBytes int
	// MaxRows caps the rows of one ingested table (0: unlimited).
	MaxRows int
	// MaxQueue caps the tables one session's accumulating flight may hold;
	// adds beyond it get a typed 429 (queue_full) instead of growing the
	// daemon's memory without bound. Zero leaves the queue unbounded.
	MaxQueue int
	// MaxInflight caps coalesced integrations running concurrently across
	// all sessions. Excess flights queue (their waiters already hold
	// admitted tables) rather than fail; fuzzyfdd_inflight_waits_total
	// counts the queuing. Zero leaves it unbounded.
	MaxInflight int
	// RatePerSec admits at most this many table-add requests per second per
	// session (token bucket, capacity Burst); excess gets a typed 429
	// (rate_limited) with Retry-After. Zero disables rate limiting.
	RatePerSec float64
	// Burst is the token-bucket capacity for RatePerSec (minimum 1).
	Burst int
	// MemoryBudget is the default per-session Full Disjunction memory
	// budget in bytes (fuzzyfd.WithMemoryBudget); zero runs unbounded. A
	// session's creation request may lower it but not exceed it.
	MemoryBudget int64
	// ProbeInterval is how often the recovery prober retries degraded
	// durable sessions' logs, re-arming writes once the filesystem heals.
	// Zero defaults to 5s (when DataDir is set); negative disables the
	// prober — writes still self-probe.
	ProbeInterval time.Duration
	// WALFS overrides the filesystem durable sessions log to. Nil means the
	// operating system's; fault-injecting filesystems (wal.NewFlakyFS) plug
	// in here for chaos testing.
	WALFS wal.FS
}

// Server hosts the fuzzyfdd HTTP API. Create with New, serve its Handler,
// and call Drain then Close on shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux
	reg *registry
	met *serverMetrics
	sem chan struct{} // in-flight integration slots (nil: unbounded)

	reqSeq uint64 // atomic: request id counter

	mu       sync.Mutex
	draining bool
	drainCh  chan struct{}  // closed when draining begins; unblocks SSE loops
	inflight sync.WaitGroup // tracked requests + batcher flights

	stopJanitor chan struct{}
	janitorDone chan struct{}
	stopProber  chan struct{}
	proberDone  chan struct{}

	// testHookIntegrate, when set, runs on the batcher goroutine
	// immediately before each coalesced integration — tests use it to
	// hold a flight open so concurrent adds pile onto the next one.
	testHookIntegrate func(session string)
}

// New builds a Server with its routes registered and, if cfg.IdleTTL is
// set, the idle-eviction janitor running.
func New(cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		met:     newServerMetrics(),
		drainCh: make(chan struct{}),
	}
	s.reg = &registry{sessions: make(map[string]*session), max: cfg.MaxSessions}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	s.routes()
	if cfg.IdleTTL > 0 {
		s.stopJanitor = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	if cfg.DataDir != "" && cfg.ProbeInterval >= 0 {
		s.stopProber = make(chan struct{})
		s.proberDone = make(chan struct{})
		go s.prober()
	}
	return s
}

// probeEvery resolves the recovery prober's period.
func (s *Server) probeEvery() time.Duration {
	if s.cfg.ProbeInterval > 0 {
		return s.cfg.ProbeInterval
	}
	return 5 * time.Second
}

// ServeHTTP makes the Server an http.Handler. Every request gets an id,
// and a handler panic is contained to its request: logged with the stack,
// counted in fuzzyfdd_panics_total, and answered with a 500 naming the
// request id — the daemon itself stays up.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := fmt.Sprintf("req-%d", atomic.AddUint64(&s.reqSeq, 1))
	r = r.WithContext(context.WithValue(r.Context(), ridKey{}, rid))
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler { // net/http's own abort signal
			panic(p)
		}
		s.met.panics.With().Inc()
		log.Printf("fuzzyfdd: %s %s %s: panic: %v\n%s", rid, r.Method, r.URL.Path, p, debug.Stack())
		// Best effort: if the handler already wrote headers this is a no-op
		// scribble on a dead connection, which net/http tolerates.
		writeErrorCode(w, r, http.StatusInternalServerError, "internal_panic", "internal error: %v", p)
	}()
	s.mux.ServeHTTP(w, r)
}

// ridKey carries the request id in the context.
type ridKey struct{}

// requestID returns the request's id, or "" outside ServeHTTP.
func requestID(r *http.Request) string {
	rid, _ := r.Context().Value(ridKey{}).(string)
	return rid
}

// requestCtx derives the handler context, applying the configured request
// timeout when one is set.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// Drain stops accepting state-changing requests (they get 503) and waits
// for in-flight requests and coalesced integrations to finish, or for ctx
// to expire — the SIGTERM half of graceful shutdown; pair it with
// http.Server.Shutdown for the listener half.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		// Quiesced: snapshot every dirty durable session so a restart
		// replays nothing (in-memory sessions no-op).
		for _, c := range s.reg.list() {
			if err := c.sess.Flush(); err != nil {
				log.Printf("fuzzyfdd: drain: flush session %q: %v", c.name, err)
			}
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fuzzyfdd: drain: %w", ctx.Err())
	}
}

// Close stops the janitor and the recovery prober. It does not wait for
// requests; call Drain first.
func (s *Server) Close() {
	if s.stopJanitor != nil {
		close(s.stopJanitor)
		<-s.janitorDone
		s.stopJanitor = nil
	}
	if s.stopProber != nil {
		close(s.stopProber)
		<-s.proberDone
		s.stopProber = nil
	}
}

// track registers a state-changing request against drain. It returns
// false — and the caller must 503 — once draining has begun.
func (s *Server) track() (func(), bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false
	}
	s.inflight.Add(1)
	return s.inflight.Done, true
}

// janitor evicts idle sessions every quarter-TTL (at least every 10ms, so
// tests with tiny TTLs stay prompt).
func (s *Server) janitor() {
	defer close(s.janitorDone)
	tick := s.cfg.IdleTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stopJanitor:
			return
		case <-t.C:
			for _, sess := range s.reg.evictIdle(s.cfg.IdleTTL) {
				// Durable sessions flush to disk on close (after any
				// running integration or stream), so eviction is a cache
				// drop — the next request lazily reopens them. The
				// registry marks the name closing until finishClose, so a
				// reopen racing this close waits instead of opening the
				// store the departing session still holds.
				if err := sess.sess.Close(); err != nil {
					log.Printf("fuzzyfdd: evict session %q: %v", sess.name, err)
				}
				s.met.sessionEvicted(sess.name)
				s.reg.finishClose(sess.name)
			}
		}
	}
}

// prober periodically retries degraded durable sessions' logs so write
// availability returns as soon as the filesystem heals, instead of the
// first post-heal client write paying for the probe.
func (s *Server) prober() {
	defer close(s.proberDone)
	t := time.NewTicker(s.probeEvery())
	defer t.Stop()
	for {
		select {
		case <-s.stopProber:
			return
		case <-t.C:
			for _, c := range s.reg.list() {
				if c.sess.Degraded() == nil {
					continue
				}
				if err := c.sess.Probe(); err == nil {
					s.met.probeRecoveries.With().Inc()
					log.Printf("fuzzyfdd: session %q: log re-armed, writes restored", c.name)
				}
			}
		}
	}
}

// sessionOptions is the JSON body of PUT /v1/sessions/{name}; zero fields
// take server defaults.
type sessionOptions struct {
	// Equi selects the equi-join baseline (no fuzzy value matching).
	Equi bool `json:"equi,omitempty"`
	// Threshold is the value-matching θ in (0, 1].
	Threshold float64 `json:"threshold,omitempty"`
	// Model names the embedding model (fuzzyfd.Models lists them).
	Model string `json:"model,omitempty"`
	// Workers overrides the server's default FD worker count.
	Workers int `json:"workers,omitempty"`
	// Budget overrides the tuple budget; it may not exceed the server's
	// configured TupleBudget when one is set.
	Budget int `json:"budget,omitempty"`
	// MemoryBudget overrides the memory budget in bytes; it may not exceed
	// the server's configured MemoryBudget when one is set.
	MemoryBudget int64 `json:"memory_budget,omitempty"`
	// ContentAlign aligns columns by content instead of header names.
	ContentAlign bool `json:"content_align,omitempty"`
}

// buildSession turns creation options into a fuzzyfd.Session wired to the
// session's progress hub — durable under dir when one is given, in-memory
// otherwise.
func (s *Server) buildSession(o sessionOptions, h *hub, dir string) (*fuzzyfd.Session, error) {
	var opts []fuzzyfd.Option
	if o.Equi {
		opts = append(opts, fuzzyfd.WithEquiJoin())
	}
	if o.Threshold != 0 {
		opts = append(opts, fuzzyfd.WithThreshold(o.Threshold))
	}
	if o.Model != "" {
		opts = append(opts, fuzzyfd.WithModel(o.Model))
	}
	if o.ContentAlign {
		opts = append(opts, fuzzyfd.WithContentAlignment(true))
	}
	workers := o.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	if workers > 0 {
		opts = append(opts, fuzzyfd.WithParallelFD(workers))
	}
	budget := o.Budget
	if s.cfg.TupleBudget > 0 && (budget <= 0 || budget > s.cfg.TupleBudget) {
		budget = s.cfg.TupleBudget
	}
	if budget > 0 {
		opts = append(opts, fuzzyfd.WithTupleBudget(budget))
	}
	memory := o.MemoryBudget
	if s.cfg.MemoryBudget > 0 && (memory <= 0 || memory > s.cfg.MemoryBudget) {
		memory = s.cfg.MemoryBudget
	}
	if memory > 0 {
		opts = append(opts, fuzzyfd.WithMemoryBudget(memory))
	}
	opts = append(opts, fuzzyfd.WithProgress(h.publish))
	if dir != "" {
		if s.cfg.WALFS != nil {
			opts = append(opts, fuzzyfd.WithDurability(fuzzyfd.Durability{FS: s.cfg.WALFS}))
		}
		return fuzzyfd.OpenSession(dir, opts...)
	}
	return fuzzyfd.NewSession(opts...)
}

// optionsFile records a durable session's creation options inside its data
// directory, so a restarted daemon can rebuild the session with the same
// engine configuration before replaying its log.
const optionsFile = "session.json"

// sessionDir maps a session name to its on-disk directory, or "" when the
// server is not durable. Names are query-escaped — one flat directory per
// session, no separators — and the two names escaping would pass through
// as path steps are refused.
func (s *Server) sessionDir(name string) (string, error) {
	if s.cfg.DataDir == "" {
		return "", nil
	}
	esc := url.QueryEscape(name)
	if esc == "" || esc == "." || esc == ".." {
		return "", fmt.Errorf("invalid session name %q", name)
	}
	return filepath.Join(s.cfg.DataDir, esc), nil
}

// saveOptions persists the creation options next to the session's log. It
// creates the directory itself: the log usually has already, but when the
// WAL is on an injected filesystem (Config.WALFS) the options file is the
// first thing to land in the real one.
func saveOptions(dir string, o sessionOptions) error {
	data, err := json.Marshal(o)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, optionsFile), append(data, '\n'), 0o644)
}

// session resolves a name: the registry first, then — on a durable server
// — the data directory, lazily reopening a session that a previous process
// (or the eviction janitor) left on disk. It returns nil when the session
// exists nowhere.
func (s *Server) session(name string) *session {
	if c := s.reg.get(name); c != nil {
		return c
	}
	dir, err := s.sessionDir(name)
	if dir == "" || err != nil {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(dir, optionsFile))
	if err != nil {
		return nil
	}
	var opts sessionOptions
	if err := json.Unmarshal(data, &opts); err != nil {
		log.Printf("fuzzyfdd: session %q: corrupt %s: %v", name, optionsFile, err)
		return nil
	}
	c, created, _, err := s.reg.put(name, func() (*session, error) {
		return s.newSession(name, opts)
	})
	if err != nil {
		log.Printf("fuzzyfdd: reopen session %q: %v", name, err)
		return nil
	}
	if created {
		s.met.sessionsReopened.With().Inc()
	}
	return c
}
