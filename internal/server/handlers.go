package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"fuzzyfd"
	"fuzzyfd/internal/table"
	"fuzzyfd/internal/wal"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	s.mux.HandleFunc("PUT /v1/sessions/{name}", s.handleCreateSession)
	s.mux.HandleFunc("GET /v1/sessions/{name}", s.handleGetSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{name}", s.handleDeleteSession)
	s.mux.HandleFunc("POST /v1/sessions/{name}/tables", s.handleAddTables)
	s.mux.HandleFunc("GET /v1/sessions/{name}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/sessions/{name}/events", s.handleEvents)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorBody is the typed error response: a message, a stable machine code,
// and the request id for correlating with the daemon's logs.
type errorBody struct {
	Error     string `json:"error"`
	Code      string `json:"code"`
	RequestID string `json:"request_id,omitempty"`
}

func writeErrorCode(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{
		Error:     fmt.Sprintf(format, args...),
		Code:      code,
		RequestID: requestID(r),
	})
}

// writeThrottled is writeErrorCode plus a Retry-After header (whole
// seconds, at least 1) — the shape of every overload rejection: session
// limit, queue full, rate limit, drain, and degraded-log 503s.
func writeThrottled(w http.ResponseWriter, r *http.Request, status int, code string, retryAfter time.Duration, format string, args ...any) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeErrorCode(w, r, status, code, format, args...)
}

// writeNoSession answers a request whose session did not resolve: 429
// session_limit when opening it would exceed the cap, 500 open_failed,
// naming the cause, when it exists but would not open (a corrupt store,
// say), else 404.
func (s *Server) writeNoSession(w http.ResponseWriter, r *http.Request, name string, err error) {
	switch {
	case errors.Is(err, errSessionLimit):
		s.met.throttled.With("session_limit").Inc()
		writeThrottled(w, r, http.StatusTooManyRequests, "session_limit", time.Second,
			"session limit %d reached", s.cfg.MaxSessions)
	case err != nil:
		writeErrorCode(w, r, http.StatusInternalServerError, "open_failed", "open session %q: %v", name, err)
	default:
		writeErrorCode(w, r, http.StatusNotFound, "no_session", "no session %q", name)
	}
}

// writeDraining answers a state-changing request arriving after drain began.
func (s *Server) writeDraining(w http.ResponseWriter, r *http.Request) {
	s.met.throttled.With("draining").Inc()
	writeThrottled(w, r, http.StatusServiceUnavailable, "draining", time.Second, "draining")
}

// timedOut reports whether err is the request deadline firing, in which
// case the handler answers 504 — the integration keeps running and its
// outcome lands in the session for a later request to read.
func timedOut(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// sessionInfo is the JSON shape of a session in GET responses.
type sessionInfo struct {
	Name             string    `json:"name"`
	Created          time.Time `json:"created"`
	Tables           int       `json:"tables"`
	Integrations     int       `json:"integrations"`
	Rows             int       `json:"rows"`
	Components       int       `json:"components"`
	ClosureTuples    int       `json:"closure_tuples"`
	ReclosedTuples   int       `json:"reclosed_tuples"`
	RewriteCacheHits int       `json:"rewrite_cache_hits"`
	// MemoryBytes is the memory budget model's estimate of the session's
	// Full Disjunction state after its latest integration: the figure a
	// -memory-budget is checked against.
	MemoryBytes int64 `json:"memory_bytes"`
}

func info(c *session) sessionInfo {
	st := c.sess.Stats()
	return sessionInfo{
		Name:             c.name,
		Created:          c.created,
		Tables:           c.sess.Tables(),
		Integrations:     c.sess.Integrations(),
		Rows:             st.Output,
		Components:       st.Components,
		ClosureTuples:    st.Closure,
		ReclosedTuples:   st.ReclosedTuples,
		RewriteCacheHits: c.sess.RewriteCacheHits(),
		MemoryBytes:      st.MemoryBytes,
	}
}

func (s *Server) handleListSessions(w http.ResponseWriter, _ *http.Request) {
	list := s.reg.list()
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	infos := make([]sessionInfo, len(list))
	for i, c := range list {
		infos[i] = info(c)
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	release, ok := s.track()
	if !ok {
		s.writeDraining(w, r)
		return
	}
	defer release()
	name := r.PathValue("name")
	var opts sessionOptions
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&opts); err != nil && !errors.Is(err, io.EOF) {
		writeErrorCode(w, r, http.StatusBadRequest, "bad_options", "session options: %v", err)
		return
	}
	err := opts.validate()
	if err == nil {
		_, err = s.sessionDir(name)
	}
	if err != nil {
		writeErrorCode(w, r, http.StatusBadRequest, "bad_options", "session options: %v", err)
		return
	}
	// A durable session left on disk by a restart or an eviction is the
	// existing session: resolve reopens it with its recorded options rather
	// than re-creating it from this request's.
	c, created, err := s.resolve(name, &opts)
	if c == nil {
		s.writeNoSession(w, r, name, err)
		return
	}
	if created {
		writeJSON(w, http.StatusCreated, info(c))
		return
	}
	writeJSON(w, http.StatusOK, info(c))
}

// newSession assembles one tenant: hub, fuzzyfd session (durable when the
// server has a data directory), batcher, metrics wiring. A durable session
// being created records its options as its log's first frame before the
// log opens; a reopen writes nothing. A creation that fails removes what
// it wrote.
func (s *Server) newSession(name string, opts sessionOptions, create bool) (*session, error) {
	dir, err := s.sessionDir(name)
	if err != nil {
		return nil, err
	}
	if dir != "" && create {
		meta, _ := json.Marshal(opts) // a struct of plain fields
		if err := wal.WriteMeta(dir, s.cfg.WALFS, meta); err != nil {
			return nil, fmt.Errorf("persist session options: %w", err)
		}
	}
	c := &session{name: name}
	// A drop can come after the session's DELETE or eviction, so it is
	// recorded only while the session is live. Lock order: publish calls
	// this under hub.mu, and whileLive then takes registry.mu; nothing
	// takes hub.mu under registry.mu.
	c.hub = newHub(func() {
		s.reg.whileLive(c, func() { s.met.sseDropped.With(name).Inc() })
	})
	c.tb = newTokenBucket(s.cfg.RatePerSec, s.cfg.Burst)
	fs, err := s.buildSession(opts, c.hub, dir)
	if err != nil {
		if dir != "" && create {
			wal.RemoveAll(s.cfg.WALFS, dir)
		}
		return nil, err
	}
	c.sess = fs
	c.bat = &batcher{
		sess:     fs,
		wg:       &s.inflight,
		maxQueue: s.cfg.MaxQueue,
		sem:      s.sem,
		waited:   func() { s.met.inflightWaits.With().Inc() },
		hook:     s.hookFor(name),
		done: func(res *fuzzyfd.Result, err error) {
			s.reg.whileLive(c, func() { s.met.onIntegrated(name, fs, res, err) })
		},
		panicked: func(v any) {
			s.met.panics.With().Inc()
			log.Printf("fuzzyfdd: session %q: integration panic: %v\n%s", name, v, debug.Stack())
		},
	}
	return c, nil
}

// hookFor reads the test hook under the server lock so tests can install
// it race-free after New.
func (s *Server) hookFor(name string) func() {
	return func() {
		s.mu.Lock()
		h := s.testHookIntegrate
		s.mu.Unlock()
		if h != nil {
			h(name)
		}
	}
}

// setIntegrateHook installs the pre-integration test hook.
func (s *Server) setIntegrateHook(h func(session string)) {
	s.mu.Lock()
	s.testHookIntegrate = h
	s.mu.Unlock()
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	c, _, err := s.resolve(r.PathValue("name"), nil)
	if c == nil {
		s.writeNoSession(w, r, r.PathValue("name"), err)
		return
	}
	writeJSON(w, http.StatusOK, info(c))
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	release, ok := s.track()
	if !ok {
		s.writeDraining(w, r)
		return
	}
	defer release()
	name := r.PathValue("name")
	found, err := s.deleteSession(name)
	switch {
	case err != nil:
		writeErrorCode(w, r, http.StatusInternalServerError, "delete_failed", "delete session data: %v", err)
	case !found:
		writeErrorCode(w, r, http.StatusNotFound, "no_session", "no session %q", name)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleAddTables(w http.ResponseWriter, r *http.Request) {
	release, ok := s.track()
	if !ok {
		s.writeDraining(w, r)
		return
	}
	defer release()
	name := r.PathValue("name")
	c, _, err := s.resolve(name, nil)
	if c == nil {
		s.writeNoSession(w, r, name, err)
		return
	}
	if wait, ok := c.tb.allow(); !ok {
		s.met.throttled.With("rate_limited").Inc()
		writeThrottled(w, r, http.StatusTooManyRequests, "rate_limited", wait,
			"session %q rate limit exceeded (%.3g/s, burst %d)", name, s.cfg.RatePerSec, s.cfg.Burst)
		return
	}
	tableName := r.URL.Query().Get("table")
	if tableName == "" {
		tableName = fmt.Sprintf("t%d", c.sess.Tables()+1)
	}
	tbl, err := fuzzyfd.ReadJSONLLimited(r.Body, tableName, fuzzyfd.JSONLLimits{
		MaxLineBytes: s.cfg.MaxLineBytes,
		MaxRows:      s.cfg.MaxRows,
	})
	if err != nil {
		// The message names the offending 1-based line of the JSONL body.
		writeErrorCode(w, r, http.StatusBadRequest, "bad_jsonl", "table body: %v", err)
		return
	}
	s.reg.whileLive(c, func() { s.met.addRequests.With(name).Inc() })
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, err := c.bat.add(ctx, tbl)
	if err != nil {
		s.writeIntegrateError(w, r, name, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session":          name,
		"table":            tableName,
		"tables":           c.sess.Tables(),
		"integrations":     c.sess.Integrations(),
		"rows":             res.FDStats.Output,
		"components":       res.FDStats.Components,
		"closure_tuples":   res.FDStats.Closure,
		"dirty_components": res.FDStats.DirtyComponents,
		"reclosed_tuples":  res.FDStats.ReclosedTuples,
	})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	release, ok := s.track()
	if !ok {
		s.writeDraining(w, r)
		return
	}
	defer release()
	name := r.PathValue("name")
	c, _, err := s.resolve(name, nil)
	if c == nil {
		s.writeNoSession(w, r, name, err)
		return
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "application/jsonl") || strings.Contains(accept, "application/x-ndjson") {
		s.streamResult(w, r, c)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	// The document is the bytes json.Encoder writes for {"columns", "rows",
	// "stats"}, its rows encoded by table.RowEncoder as the stream's are.
	rows := []byte(`,"rows":[`)
	var enc *table.RowEncoder
	res, err := c.sess.StreamContext(ctx, func(schema fuzzyfd.Schema, row fuzzyfd.Row, _ []fuzzyfd.TID) error {
		if enc == nil {
			enc = table.NewRowEncoder(schema.Columns)
		} else {
			rows = append(rows, ',')
		}
		rows = enc.AppendRow(rows, row)
		rows = rows[:len(rows)-1] // the row's newline
		return nil
	})
	if err != nil {
		s.writeIntegrateError(w, r, name, err)
		return
	}
	// Neither can fail: a []string, and a struct of integer fields.
	columns, _ := json.Marshal(res.Schema.Columns)
	stats, _ := json.Marshal(res.FDStats)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append([]byte(`{"columns":`), columns...))
	w.Write(rows)
	w.Write(append(append([]byte(`],"stats":`), stats...), "}\n"...))
}

// streamResult emits the session's current result as JSON Lines, each row
// encoded by table.RowEncoder as WriteJSONL encodes it. It reads
// Session.StreamContext, which serves the last integration when nothing was
// added since and integrates first otherwise; the JSON form of the route
// reads the same result the same way. The stream holds no session lock, so
// a slow client holds up no add. Rows go out in flushes of 128, and the
// status goes with the first: a failure before it answers a JSON error, a
// failure after it leaves a truncated 200 body.
func (s *Server) streamResult(w http.ResponseWriter, r *http.Request, c *session) {
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	w.Header().Set("Content-Type", "application/jsonl")
	var (
		buf []byte
		enc *table.RowEncoder
	)
	n, flushed := 0, false
	flush := func() {
		w.Write(buf)
		buf = buf[:0]
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		flushed = true
	}
	_, err := c.sess.StreamContext(ctx, func(schema fuzzyfd.Schema, row fuzzyfd.Row, _ []fuzzyfd.TID) error {
		if enc == nil {
			enc = table.NewRowEncoder(schema.Columns) // one result, one schema
		}
		buf = enc.AppendRow(buf, row)
		n++
		if n%128 == 0 {
			flush()
		}
		return nil
	})
	if err != nil && !flushed {
		s.writeIntegrateError(w, r, c.name, err)
		return
	}
	w.Write(buf)
	s.reg.whileLive(c, func() { s.met.rowsStreamed.With(c.name).Add(float64(n)) })
}

// writeIntegrateError answers a failed add, result or stream of session
// name with the status and code of the README's failure table.
func (s *Server) writeIntegrateError(w http.ResponseWriter, r *http.Request, name string, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		s.met.throttled.With("queue_full").Inc()
		writeThrottled(w, r, http.StatusTooManyRequests, "queue_full", time.Second,
			"session %q ingestion queue is full (limit %d tables per flight)", name, s.cfg.MaxQueue)
	case timedOut(err):
		writeErrorCode(w, r, http.StatusGatewayTimeout, "timeout",
			"integration exceeded the request timeout %s", s.cfg.RequestTimeout)
	case errors.Is(err, fuzzyfd.ErrNoTables):
		writeErrorCode(w, r, http.StatusConflict, "no_tables", "integrate: %v", err)
	case errors.Is(err, fuzzyfd.ErrMemoryBudget):
		writeErrorCode(w, r, http.StatusUnprocessableEntity, "memory_budget", "integrate: %v", err)
	case errors.Is(err, fuzzyfd.ErrDegraded):
		// Degraded mode: the session's log gave up on its filesystem.
		// Reads and streams keep working; the next write that finds the
		// filesystem healed re-arms the log and lands.
		writeThrottled(w, r, http.StatusServiceUnavailable, "degraded", time.Second,
			"session %q is degraded (log unavailable, reads still served): %v", name, err)
	case errors.Is(err, fuzzyfd.ErrSessionClosed):
		writeThrottled(w, r, http.StatusServiceUnavailable, "session_closed", time.Second,
			"session %q was closed mid-request; retry", name)
	default:
		writeErrorCode(w, r, http.StatusInternalServerError, "integrate_failed", "integrate: %v", err)
	}
}

// handleEvents serves the session's progress stream as Server-Sent Events:
// one "progress" event per fuzzyfd.ProgressEvent, live from integrations
// coalesced while the subscriber is connected. The stream ends when the
// client goes away or the server drains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	release, ok := s.track()
	if !ok {
		s.writeDraining(w, r)
		return
	}
	defer release()
	name := r.PathValue("name")
	c, _, err := s.resolve(name, nil)
	if c == nil {
		s.writeNoSession(w, r, name, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErrorCode(w, r, http.StatusInternalServerError, "streaming_unsupported", "streaming unsupported")
		return
	}
	// Subscribe before the headers go out: a client whose request has
	// returned must see every event published after that.
	ch, cancel := c.hub.subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": fuzzyfdd session %s\n\n", name)
	fl.Flush()
	for {
		select {
		case ev := <-ch:
			data, err := json.Marshal(map[string]any{
				"phase":          ev.Phase,
				"done":           ev.Done,
				"elapsed_ms":     ev.Elapsed.Milliseconds(),
				"component":      ev.Component,
				"components":     ev.Components,
				"closure_tuples": ev.ClosureTuples,
			})
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}
