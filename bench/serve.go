package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyfd"
	"fuzzyfd/internal/core"
	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/server"
	"fuzzyfd/internal/table"
)

// serve is the daemon workload: an in-process server.Server behind a real
// loopback listener, durable sessions, one closed-loop writer connection
// posting JSONL row chunks and one reader connection streaming the result
// beside it.
type serve struct {
	n       int
	batches [][]post       // batches[b] holds one chunk of every table
	parsed  []*table.Table // the chunks as the server parses them, in post order
	posted  int            // JSONL bytes posted per operation
	ref     rows
	result  *table.Table // the reference integration, for the encode probe

	dir string
	tr  atomic.Pointer[tracer] // attached to the seams while a traced operation runs
	d   *daemon

	writer, reader *http.Client

	// The last operation.
	mu           sync.Mutex
	reqs         []request
	final        []byte
	integrations float64
	wal          [2]walSnapshot
}

type post struct {
	name string
	body []byte
}

// request is the client's view of one HTTP exchange.
type request struct {
	kind   string
	dur    time.Duration
	status int
	rows   int
}

// daemon is one booted server on its counted disk.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
	fs  *countingFS
}

// boot starts a daemon over dir; the session log goes to fs, and dir holds
// only what the server writes beside the log (the session's options file).
func (s *serve) boot(dir string, fs *countingFS) *daemon {
	d := &daemon{fs: fs}
	d.srv = server.New(server.Config{DataDir: dir, WALFS: fs})
	d.ts = httptest.NewServer(timingHandler{inner: d.srv, tr: &s.tr})
	return d
}

// stop shuts the daemon down; graceful drains first (snapshotting open
// sessions), which a simulated kill skips.
func (d *daemon) stop(graceful bool) error {
	var err error
	if graceful {
		err = d.srv.Drain(ctx)
	}
	d.ts.Close()
	d.srv.Close()
	return err
}

// oneConn returns a client holding a single connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func newServe(c config) (instance, error) {
	s := &serve{writer: oneConn(), reader: oneConn()}
	// Row order is part of this workload's shape: which rows arrive in
	// which batch decides how much each increment re-closes.
	tables := c.imdb(serveTuples, false)
	s.n = datagen.TotalRows(tables)
	s.batches = make([][]post, serveBatches)
	for b := range s.batches {
		for _, t := range tables {
			lo, hi := b*len(t.Rows)/serveBatches, (b+1)*len(t.Rows)/serveBatches
			if lo == hi {
				continue
			}
			chunk := &table.Table{Name: t.Name, Columns: t.Columns, Rows: t.Rows[lo:hi]}
			var buf bytes.Buffer
			if err := table.WriteJSONL(&buf, chunk); err != nil {
				return nil, err
			}
			p := post{name: t.Name + "-" + strconv.Itoa(b), body: buf.Bytes()}
			parsed, err := table.ReadJSONL(bytes.NewReader(p.body), p.name)
			if err != nil {
				return nil, err
			}
			s.batches[b] = append(s.batches[b], p)
			s.parsed = append(s.parsed, parsed)
			s.posted += len(p.body)
		}
	}
	// The reference is the library's one-shot result over what was posted.
	res, err := fuzzyfd.IntegrateContext(ctx, s.parsed, pipelineOptions(true)...)
	if err != nil {
		return nil, err
	}
	s.ref, s.result = tableRows(res.Table), res.Table

	if err := os.MkdirAll(c.dataDir, 0o755); err != nil {
		return nil, err
	}
	if s.dir, err = os.MkdirTemp(c.dataDir, "serve-"); err != nil {
		return nil, err
	}
	s.d = s.boot(s.dir, newCountingFS(&s.tr))
	return s, nil
}

func (s *serve) tuples() int { return s.n }

func (s *serve) close() error {
	err := s.d.stop(true)
	s.writer.CloseIdleConnections()
	s.reader.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

const sessionURL = "/v1/sessions/bench"

// do performs one request to the end of its response body and records it.
func (s *serve) do(tr *tracer, root int, c *http.Client, base, kind, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if kind == "GET result" {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	id := tr.begin(root, "server", kind)
	defer tr.end(id)
	if id != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := request{kind: kind, dur: time.Since(t0), status: resp.StatusCode}
	if kind == "GET result" {
		r.rows = bytes.Count(data, []byte{'\n'})
	}
	s.mu.Lock()
	s.reqs = append(s.reqs, r)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", kind, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// script is the operation against the daemon at base: create the session,
// post every chunk in order from the writer connection, stream the result
// from the reader connection beside the writes after batches 4, 8, 12 and
// 16, and once more after the last. It returns that final stream.
func (s *serve) script(tr *tracer, root int, base string) ([]byte, error) {
	if _, err := s.do(tr, root, s.writer, base, "PUT session", http.MethodPut, sessionURL, []byte(`{"equi":true}`)); err != nil {
		return nil, err
	}
	var reading chan error
	wait := func() error {
		if reading == nil {
			return nil
		}
		err := <-reading
		reading = nil
		return err
	}
	for b, batch := range s.batches {
		for _, p := range batch {
			ack, err := s.do(tr, root, s.writer, base, "POST tables", http.MethodPost, sessionURL+"/tables?table="+p.name, p.body)
			if err != nil {
				wait()
				return nil, err
			}
			var fields struct{ Integrations float64 }
			if err := json.Unmarshal(ack, &fields); err != nil {
				wait()
				return nil, err
			}
			s.integrations = fields.Integrations
		}
		if done := b + 1; done%4 == 0 && done < serveBatches {
			if err := wait(); err != nil {
				return nil, err
			}
			reading = make(chan error, 1)
			go func() {
				_, err := s.do(tr, root, s.reader, base, "GET result", http.MethodGet, sessionURL+"/result", nil)
				reading <- err
			}()
		}
	}
	if err := wait(); err != nil {
		return nil, err
	}
	return s.do(tr, root, s.reader, base, "GET result", http.MethodGet, sessionURL+"/result", nil)
}

func (s *serve) run(tr *tracer, root int) error {
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	s.reqs, s.final = s.reqs[:0], nil
	s.d.fs.reset()
	s.wal[0] = s.d.fs.c.read()
	final, err := s.script(tr, root, s.d.ts.URL)
	// Delete even after a failure, so the next operation starts clean.
	if _, derr := s.do(tr, root, s.writer, s.d.ts.URL, "DELETE session", http.MethodDelete, sessionURL, nil); err == nil {
		err = derr
	}
	s.wal[1] = s.d.fs.c.read()
	s.final = final
	return err
}

// streamRows parses a JSONL result stream into a row multiset.
func streamRows(data []byte) (rows, error) {
	out := rows{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 4<<20)
	for sc.Scan() {
		var obj map[string]string
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			return nil, err
		}
		out[rowKey(obj)]++
	}
	return out, sc.Err()
}

func (s *serve) check() (float64, error) {
	got, err := streamRows(s.final)
	if err != nil {
		return 0, err
	}
	return checkRows(got, s.ref)
}

func (s *serve) layers(st spanTimes, m layerSample) {
	var adds, streams []float64
	rejected, streamed := 0, 0
	for _, r := range s.reqs {
		if r.status/100 != 2 {
			rejected++
		}
		switch r.kind {
		case "POST tables":
			adds = append(adds, r.dur.Seconds()*1e3)
		case "GET result":
			streams = append(streams, r.dur.Seconds()*1e3)
			streamed += r.rows
		}
	}
	m["server.adds"] = float64(len(adds))
	m["server.add_ms_p50"] = median(adds)
	m["server.add_ms_p99"] = quantile(adds, 0.99)
	m["server.add_ms_max"] = quantile(adds, 1)
	m["server.stream_ms_p50"] = median(streams)
	m["server.stream_rows_per_s"] = ratio(float64(streamed), sum(streams)/1e3)
	m["server.integrations_per_add"] = ratio(s.integrations, float64(len(adds)))
	m["server.rejected"] = float64(rejected)
	handler := 0.0
	for _, sp := range st.spans {
		if sp.Layer == "server" && strings.HasPrefix(sp.Name, "handler ") {
			handler += float64(sp.End-sp.Start) / 1e9
		}
	}
	m["server.handler_busy_s"] = handler

	w0, w1 := s.wal[0], s.wal[1]
	m["wal.appends"] = float64(w1.appends - w0.appends)
	m["wal.fsyncs"] = float64(w1.fsyncs - w0.fsyncs)
	m["wal.bytes_written"] = float64(w1.bytes - w0.bytes)
	m["wal.files_created"] = float64(w1.files - w0.files)
	m["wal.snapshots"] = float64(w1.snapshots - w0.snapshots)
	m["wal.write_amp"] = ratio(float64(w1.bytes-w0.bytes), float64(s.posted))
	m["wal.fs_busy_s"] = st.busy["wal"]
	// A snapshot runs from the creation of its temporary directory to the
	// CURRENT pointer flip, as seen at the filesystem seam.
	var walSpans []span
	for _, sp := range st.spans {
		if sp.Layer == "wal" {
			walSpans = append(walSpans, sp)
		}
	}
	sort.Slice(walSpans, func(i, j int) bool { return walSpans[i].Start < walSpans[j].Start })
	longest, began := int64(0), int64(-1)
	for _, sp := range walSpans {
		switch sp.Name {
		case "snapshot begin":
			began = sp.Start
		case "snapshot commit":
			if began >= 0 {
				longest = max(longest, sp.End-began)
			}
			began = -1
		}
	}
	m["wal.snapshot_ms_max"] = float64(longest) / 1e6
}

func (s *serve) probes(tr *tracer, root int, opS float64, m layerSample) error {
	m.internProbe(tr, root, s.parsed)
	if err := m.tableProbe(tr, root, s.flat(), s.result); err != nil {
		return err
	}
	bare, err := s.bareScript(tr, root, m)
	if err != nil {
		return err
	}
	m["server.overhead_share"] = ratio(opS-bare, opS)
	return s.reopenProbe(tr, root, m)
}

func (s *serve) flat() [][]byte {
	var out [][]byte
	for _, batch := range s.batches {
		for _, p := range batch {
			out = append(out, p.body)
		}
	}
	return out
}

// bareScript runs the operation's adds, integrations and streams on a bare
// in-memory session: the same engine work with no HTTP, parsing, batching
// or log. The difference to the operation is the serving overhead, and its
// results supply the fd and core numbers the HTTP responses do not carry.
func (s *serve) bareScript(tr *tracer, root int, m layerSample) (float64, error) {
	id := tr.begin(root, "core", "bare session")
	defer tr.end(id)
	t0 := time.Now()
	sess, err := fuzzyfd.NewSession(pipelineOptions(true)...)
	if err != nil {
		return 0, err
	}
	var results []*core.Result
	discard := func(fd.Schema, table.Row, []fd.TID) error { return nil }
	i := 0
	for b, batch := range s.batches {
		for range batch {
			if err := sess.Append(s.parsed[i]); err != nil {
				return 0, err
			}
			i++
			res, err := sess.IntegrateContext(ctx)
			if err != nil {
				return 0, err
			}
			results = append(results, res)
		}
		if done := b + 1; done%4 == 0 {
			if _, err := sess.StreamContext(ctx, discard); err != nil {
				return 0, err
			}
		}
	}
	wall := time.Since(t0).Seconds()
	m.pipeline(results, spanTimes{})
	return wall, nil
}

// reopenProbe measures restart: a second daemon's data directory is filled
// by the script and the daemon is stopped without draining, as a kill would
// leave it — a snapshot plus an unsnapshotted log tail. A fresh daemon on
// the same directory must then serve the same result from its first
// request. (Crash safety itself is internal/wal's property tests' job; this
// is the cost of the reopen and a check that it is lossless.)
func (s *serve) reopenProbe(tr *tracer, root int, m layerSample) error {
	dir, err := os.MkdirTemp(filepath.Dir(s.dir), "reopen-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	killed := s.boot(dir, newCountingFS(&s.tr))
	if _, err := s.script(nil, 0, killed.ts.URL); err != nil {
		killed.stop(false)
		return err
	}
	m["wal.replayed_frames"] = float64(killed.fs.c.tail.Load())
	if err := killed.stop(false); err != nil {
		return err
	}

	fresh := s.boot(dir, killed.fs)
	defer fresh.stop(true)
	id := tr.begin(root, "wal", "reopen")
	t0 := time.Now()
	data, err := s.do(nil, 0, s.reader, fresh.ts.URL, "GET result", http.MethodGet, sessionURL+"/result", nil)
	m["wal.recover_ms"] = time.Since(t0).Seconds() * 1e3
	tr.end(id)
	if err != nil {
		return err
	}
	got, err := streamRows(data)
	if err != nil {
		return err
	}
	if _, err := checkRows(got, s.ref); err != nil {
		return fmt.Errorf("reopened session: %w", err)
	}

	id = tr.begin(root, "metrics", "scrape")
	t0 = time.Now()
	_, err = s.do(nil, 0, s.reader, fresh.ts.URL, "GET metrics", http.MethodGet, "/metrics", nil)
	m["metrics.scrape_ms"] = time.Since(t0).Seconds() * 1e3
	tr.end(id)
	if err != nil {
		return err
	}
	_, err = s.do(nil, 0, s.writer, fresh.ts.URL, "DELETE session", http.MethodDelete, sessionURL, nil)
	return err
}
