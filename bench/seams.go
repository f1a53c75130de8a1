package main

import (
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/wal"
)

// The wrappers in this file are the benchmark's only instruments inside the
// program: they sit on seams the program already offers (core.Config.Embedder,
// server.Config.WALFS, http.Handler). Counts are atomic adds and are taken
// on every run; clock reads happen only when a tracer is attached.

// walCounts is what the write-ahead log asked of its filesystem.
type walCounts struct {
	appends   atomic.Int64 // writes to a log opened for appending: one per frame
	fsyncs    atomic.Int64 // File.Sync + SyncDir calls
	bytes     atomic.Int64 // bytes written, log and snapshot segments
	files     atomic.Int64 // files created (log generations, segments, manifests, pointers)
	snapshots atomic.Int64 // snapshots committed (CURRENT pointer flips)
	tail      atomic.Int64 // frames appended since the last committed snapshot
}

type walSnapshot struct{ appends, fsyncs, bytes, files, snapshots int64 }

func (c *walCounts) read() walSnapshot {
	return walSnapshot{c.appends.Load(), c.fsyncs.Load(), c.bytes.Load(), c.files.Load(), c.snapshots.Load()}
}

// countingFS puts the write-ahead log on an in-memory disk (wal.MemFS),
// counting every call and, under a tracer, timing it. The durable
// workload's data has to stay inside the checkout, on whatever disk that
// is; on it, creating a snapshot's segment files alone took 1.8 s of a 2 s
// operation and a flush moves a run by a third. So the device is left out
// of the timings and its cost reported as counts. reset gives an operation
// an empty disk; a restarted daemon keeps the disk it was killed on.
type countingFS struct {
	disk atomic.Pointer[wal.MemFS]
	c    walCounts
	tr   *atomic.Pointer[tracer]
}

func newCountingFS(tr *atomic.Pointer[tracer]) *countingFS {
	f := &countingFS{tr: tr}
	f.reset()
	return f
}

func (f *countingFS) reset() { f.disk.Store(wal.NewMemFS()) }

func (f *countingFS) span(name string) (*tracer, int) {
	tr := f.tr.Load()
	if tr == nil {
		return nil, 0
	}
	return tr, tr.begin(int(tr.writeSpan.Load()), "wal", name)
}

func (f *countingFS) MkdirAll(dir string) error {
	name := "mkdir"
	if strings.HasSuffix(dir, ".tmp") {
		name = "snapshot begin" // a snapshot starts by creating its temporary directory
	}
	tr, id := f.span(name)
	defer tr.end(id)
	return f.disk.Load().MkdirAll(dir)
}

func (f *countingFS) open(name string, log bool) (wal.File, error) {
	tr, id := f.span("create")
	defer tr.end(id)
	f.c.files.Add(1)
	open := f.disk.Load().Create
	if log {
		open = f.disk.Load().OpenAppend
	}
	file, err := open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f, log: log}, nil
}

func (f *countingFS) OpenAppend(name string) (wal.File, error) { return f.open(name, true) }
func (f *countingFS) Create(name string) (wal.File, error)     { return f.open(name, false) }

func (f *countingFS) Open(name string) (io.ReadCloser, error) {
	tr, id := f.span("read")
	defer tr.end(id)
	return f.disk.Load().Open(name)
}

func (f *countingFS) ReadDir(dir string) ([]string, error) {
	tr, id := f.span("readdir")
	defer tr.end(id)
	return f.disk.Load().ReadDir(dir)
}

func (f *countingFS) Stat(name string) (int64, error) { return f.disk.Load().Stat(name) }

func (f *countingFS) Truncate(name string, size int64) error {
	return f.disk.Load().Truncate(name, size)
}

func (f *countingFS) Rename(oldname, newname string) error {
	name := "rename"
	if filepath.Base(newname) == "CURRENT" { // the pointer flip commits a snapshot
		name = "snapshot commit"
		f.c.snapshots.Add(1)
		f.c.tail.Store(0)
	}
	tr, id := f.span(name)
	defer tr.end(id)
	return f.disk.Load().Rename(oldname, newname)
}

func (f *countingFS) Remove(name string) error {
	tr, id := f.span("remove")
	defer tr.end(id)
	return f.disk.Load().Remove(name)
}

func (f *countingFS) SyncDir(dir string) error {
	tr, id := f.span("sync")
	defer tr.end(id)
	f.c.fsyncs.Add(1)
	return f.disk.Load().SyncDir(dir)
}

type countingFile struct {
	wal.File
	fs  *countingFS
	log bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	tr, id := f.fs.span("write")
	defer tr.end(id)
	if f.log {
		f.fs.c.appends.Add(1)
		f.fs.c.tail.Add(1)
	}
	f.fs.c.bytes.Add(int64(len(p)))
	return f.File.Write(p)
}

func (f *countingFile) Sync() error {
	tr, id := f.fs.span("sync")
	defer tr.end(id)
	f.fs.c.fsyncs.Add(1)
	return f.File.Sync()
}

// timingEmbedder records, under a tracer, one span per Embed call. It goes
// under the session's value cache, so it sees exactly the calls that miss
// the cache.
type timingEmbedder struct {
	embed.Embedder
	tr *tracer
}

func (e timingEmbedder) Embed(value string) embed.Vector {
	if e.tr == nil {
		return e.Embedder.Embed(value)
	}
	id := e.tr.begin(int(e.tr.matchSpan.Load()), "embed", "embed")
	v := e.Embedder.Embed(value)
	e.tr.end(id)
	return v
}

// spanHeader carries the client-side request span to the handler wrapper,
// so the handler's span is recorded as its child. Both ends are bench code.
const spanHeader = "X-Bench-Span"

// timingHandler times the server's http.Handler when a tracer is attached.
type timingHandler struct {
	inner http.Handler
	tr    *atomic.Pointer[tracer]
}

func (h timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	id := tr.begin(parent, "server", "handler "+r.Method)
	if r.Method != http.MethodGet {
		tr.writeSpan.Store(int64(id))
	}
	h.inner.ServeHTTP(w, r)
	tr.end(id)
}
