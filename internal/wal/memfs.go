package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Fault-injection errors. ErrCrashed marks the simulated machine as dead:
// every operation fails with it until Crash rolls the filesystem back to
// its durable image.
var (
	ErrCrashed  = errors.New("wal: simulated crash")
	ErrInjected = errors.New("wal: injected fault")
)

// MemFS is an in-memory FS with a faithful crash model for property
// testing the recovery protocol:
//
//   - File bytes written but not Sync'd are lost at Crash, so a crash
//     mid-frame leaves a torn tail exactly as a real kernel may.
//   - Namespace changes (create, rename, remove, mkdir) not committed by
//     SyncDir of the parent are rolled back at Crash, so a log file whose
//     directory entry was never committed is genuinely lost — and so is
//     everything under a directory whose own entry was never committed.
//   - CrashAfterBytes arms a byte budget: the write that exhausts it is
//     applied partially (a short, torn write) and the filesystem dies with
//     ErrCrashed — crash-at-byte-N for every N.
//   - FailWrite and FailSync inject one-shot short writes and fsync errors
//     without killing the filesystem, exercising the error-repair paths
//     (the store must truncate the torn frame and stay usable).
//   - FlipBit corrupts a durable byte in place, exercising checksum
//     detection.
//
// The zero value is not usable; call NewMemFS.
type MemFS struct {
	mu  sync.Mutex
	vol map[string]*memEntry // volatile (live) namespace
	dur map[string]*memEntry // namespace as it would survive a crash

	crashed    bool
	budget     int64 // bytes until simulated crash; <0 = disarmed
	armed      bool
	writeFails int    // inject a short write on the n-th write from now (1 = next)
	syncFails  int    // inject an error on the n-th sync from now
	failMatch  string // restrict injected write/sync faults to paths containing this

	bytesWritten int64 // total bytes accepted across all files, for reporting
}

// memEntry is one namespace entry: a directory marker or a file. File
// objects are shared between the volatile and durable views; content
// durability is tracked by synced on the file itself, so a rename does not
// disturb what survives a crash.
type memEntry struct {
	dir bool
	f   *memFile
}

type memFile struct {
	data   []byte
	synced int // prefix length that survives a crash
}

// NewMemFS returns an empty in-memory filesystem with faults disarmed.
func NewMemFS() *MemFS {
	root := &memEntry{dir: true}
	return &MemFS{
		vol: map[string]*memEntry{".": root, "/": root},
		dur: map[string]*memEntry{".": root, "/": root},
	}
}

// CrashAfterBytes arms the crash budget: after n more bytes are accepted
// by Write calls, the filesystem dies with ErrCrashed (the fatal write is
// applied partially — a torn write). Call Crash to roll back to the
// durable image and revive it.
func (m *MemFS) CrashAfterBytes(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget, m.armed = n, true
}

// FailWrite makes the n-th Write from now (1 = the next) on a path
// containing match fail with ErrInjected after applying half its bytes — a
// short write without a crash.
func (m *MemFS) FailWrite(n int, match string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeFails, m.failMatch = n, match
}

// FailSync makes the n-th Sync from now on a path containing match fail
// with ErrInjected; the data stays unsynced.
func (m *MemFS) FailSync(n int, match string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncFails, m.failMatch = n, match
}

// Crash rolls the filesystem back to its durable image — unsynced file
// bytes vanish, uncommitted namespace changes roll back, and durable entries
// under a directory whose own entry is not durable are unreachable and go
// too — and revives it for reopening. It reports whether the armed budget
// had fired.
func (m *MemFS) Crash() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	fired := m.crashed
	m.crashed, m.armed, m.budget = false, false, 0
	m.writeFails, m.syncFails = 0, 0
	for p := range m.dur {
		if !m.reachable(p) {
			delete(m.dur, p)
		}
	}
	m.vol = make(map[string]*memEntry, len(m.dur))
	for p, e := range m.dur {
		m.vol[p] = e
	}
	seen := make(map[*memFile]bool)
	for _, e := range m.vol {
		if e.f != nil && !seen[e.f] {
			seen[e.f] = true
			e.f.data = e.f.data[:e.f.synced]
		}
	}
	return fired
}

// reachable reports whether every ancestor of p is a durable directory.
func (m *MemFS) reachable(p string) bool {
	for d := filepath.Dir(p); d != p; p, d = d, filepath.Dir(d) {
		if e := m.dur[d]; e == nil || !e.dir {
			return false
		}
	}
	return true
}

// BytesWritten reports the total bytes accepted across all files — the
// coordinate space CrashAfterBytes sweeps over.
func (m *MemFS) BytesWritten() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytesWritten
}

// FlipBit flips one bit of a file's content in both the live and durable
// images — simulated media corruption for checksum tests.
func (m *MemFS) FlipBit(name string, byteIdx int, bit uint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.vol[clean(name)]
	if e == nil || e.f == nil {
		return pathErr("flipbit", name, errNotExist)
	}
	if byteIdx < 0 || byteIdx >= len(e.f.data) {
		return pathErr("flipbit", name, fmt.Errorf("byte %d out of range", byteIdx))
	}
	e.f.data[byteIdx] ^= 1 << (bit % 8)
	return nil
}

// errNotExist aliases the standard sentinel so missing-path failures are
// classified permanent by IsTransient, exactly like the real filesystem's.
var errNotExist = os.ErrNotExist

func clean(p string) string { return filepath.Clean(p) }

func (m *MemFS) dead() error {
	if m.crashed {
		return ErrCrashed
	}
	return nil
}

// parentsExist reports whether every ancestor directory of path exists in
// the volatile view.
func (m *MemFS) parentsExist(p string) bool {
	dir := filepath.Dir(p)
	e := m.vol[dir]
	return e != nil && e.dir
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.dead(); err != nil {
		return err
	}
	d := clean(dir)
	var parts []string
	for d != "." && d != "/" {
		parts = append(parts, d)
		d = filepath.Dir(d)
	}
	for i := len(parts) - 1; i >= 0; i-- {
		p := parts[i]
		if e := m.vol[p]; e != nil {
			if !e.dir {
				return pathErr("mkdir", p, errors.New("not a directory"))
			}
			continue
		}
		m.vol[p] = &memEntry{dir: true}
	}
	return nil
}

// memHandle is an open MemFS file. Append and create handles both write at
// the current end of the file (the store only ever appends or writes fresh
// files).
type memHandle struct {
	fs   *MemFS
	name string
	f    *memFile
}

func (m *MemFS) openWrite(name string, trunc bool) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.dead(); err != nil {
		return nil, err
	}
	p := clean(name)
	if !m.parentsExist(p) {
		return nil, pathErr("open", name, errNotExist)
	}
	e := m.vol[p]
	if e != nil && e.dir {
		return nil, pathErr("open", name, errors.New("is a directory"))
	}
	if e == nil {
		e = &memEntry{f: &memFile{}}
		m.vol[p] = e
	} else if trunc {
		// Create replaces content: fork the file object so a durable entry
		// under another name (or the durable view of this one) keeps the old
		// bytes until SyncDir commits the new entry.
		e = &memEntry{f: &memFile{}}
		m.vol[p] = e
	}
	return &memHandle{fs: m, name: p, f: e.f}, nil
}

func (m *MemFS) OpenAppend(name string) (File, error) { return m.openWrite(name, false) }
func (m *MemFS) Create(name string) (File, error)     { return m.openWrite(name, true) }

func (h *memHandle) Write(p []byte) (int, error) {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.dead(); err != nil {
		return 0, err
	}
	n := len(p)
	var werr error
	if m.writeFails > 0 && strings.Contains(h.name, m.failMatch) {
		m.writeFails--
		if m.writeFails == 0 {
			n = n / 2
			werr = pathErr("write", h.name, ErrInjected)
		}
	}
	if m.armed {
		if int64(n) >= m.budget {
			n = int(m.budget)
			m.crashed = true
			werr = pathErr("write", h.name, ErrCrashed)
		}
		m.budget -= int64(n)
	}
	h.f.data = append(h.f.data, p[:n]...)
	m.bytesWritten += int64(n)
	if werr == nil && n < len(p) {
		werr = pathErr("write", h.name, io.ErrShortWrite)
	}
	return n, werr
}

func (h *memHandle) Sync() error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.dead(); err != nil {
		return err
	}
	if m.syncFails > 0 && strings.Contains(h.name, m.failMatch) {
		m.syncFails--
		if m.syncFails == 0 {
			return pathErr("sync", h.name, ErrInjected)
		}
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error { return nil }

func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.dead(); err != nil {
		return nil, err
	}
	e := m.vol[clean(name)]
	if e == nil || e.dir {
		return nil, pathErr("open", name, errNotExist)
	}
	// Snapshot the content: the store never reads and writes a file
	// concurrently, but a stable reader keeps tests simple.
	return io.NopCloser(bytes.NewReader(append([]byte(nil), e.f.data...))), nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.dead(); err != nil {
		return nil, err
	}
	d := clean(dir)
	if e := m.vol[d]; e == nil || !e.dir {
		return nil, pathErr("readdir", dir, errNotExist)
	}
	var names []string
	for p := range m.vol {
		if p != d && filepath.Dir(p) == d {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Stat(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.dead(); err != nil {
		return 0, err
	}
	e := m.vol[clean(name)]
	if e == nil {
		return 0, pathErr("stat", name, errNotExist)
	}
	if e.dir {
		return 0, nil
	}
	return int64(len(e.f.data)), nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.dead(); err != nil {
		return err
	}
	e := m.vol[clean(name)]
	if e == nil || e.dir {
		return pathErr("truncate", name, errNotExist)
	}
	if size < 0 || size > int64(len(e.f.data)) {
		return pathErr("truncate", name, errors.New("size out of range"))
	}
	e.f.data = e.f.data[:size]
	if e.f.synced > int(size) {
		e.f.synced = int(size)
	}
	return nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.dead(); err != nil {
		return err
	}
	op, np := clean(oldname), clean(newname)
	e := m.vol[op]
	if e == nil {
		return pathErr("rename", oldname, errNotExist)
	}
	if !m.parentsExist(np) {
		return pathErr("rename", newname, errNotExist)
	}
	if e.dir {
		return pathErr("rename", oldname, errors.New("is a directory"))
	}
	delete(m.vol, op)
	m.vol[np] = e
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.dead(); err != nil {
		return err
	}
	p := clean(name)
	e := m.vol[p]
	if e == nil {
		return pathErr("remove", name, errNotExist)
	}
	if e.dir {
		for q := range m.vol {
			if q != p && strings.HasPrefix(q, p+string(filepath.Separator)) {
				return pathErr("remove", name, errors.New("directory not empty"))
			}
		}
	}
	delete(m.vol, p)
	return nil
}

// SyncDir commits the directory's entry changes to the durable image: its
// direct children in the volatile view replace those in the durable view.
// The directory's own entry is its parent's to commit. Files gaining a
// durable entry keep their own synced watermark — an unsynced file
// committed by name still loses its bytes at Crash, exactly as a real
// filesystem may.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.dead(); err != nil {
		return err
	}
	d := clean(dir)
	if e := m.vol[d]; e == nil || !e.dir {
		return pathErr("syncdir", dir, errNotExist)
	}
	for p := range m.dur {
		if p != d && filepath.Dir(p) == d {
			if _, ok := m.vol[p]; !ok {
				delete(m.dur, p)
			}
		}
	}
	for p, e := range m.vol {
		if p != d && filepath.Dir(p) == d {
			m.dur[p] = e
		}
	}
	return nil
}
