package wal

import (
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// FlakyFS wraps another FS and injects transient faults into a tunable
// fraction of its write-side operations — the chaos harness behind the
// store's retry and degraded-mode paths. Faults are ErrInjected (classified
// transient by IsTransient); an injected file write is torn, landing half
// its bytes, so repair paths are exercised too. Read-side operations (Open,
// ReadDir, Stat) and the namespace ops Remove and MkdirAll never fault:
// recovery correctness under those is MemFS's crash model's job, while
// FlakyFS models a disk whose writes intermittently fail.
//
// The fault stream is seeded, so a given (seed, rate, operation sequence)
// misbehaves reproducibly. SetRate may be called concurrently with use —
// chaos tests heal the disk by dropping the rate to 0.
type FlakyFS struct {
	inner FS

	mu   sync.Mutex
	rng  *rand.Rand
	rate float64

	injected atomic.Int64
}

// NewFlakyFS wraps inner, failing roughly rate (in [0, 1]) of write-side
// operations with ErrInjected, deterministically from seed.
func NewFlakyFS(inner FS, rate float64, seed uint64) *FlakyFS {
	return &FlakyFS{inner: inner, rng: rand.New(rand.NewPCG(seed, seed)), rate: rate}
}

// SetRate changes the fault probability; 0 heals the filesystem.
func (f *FlakyFS) SetRate(rate float64) {
	f.mu.Lock()
	f.rate = rate
	f.mu.Unlock()
}

// Injected reports how many faults have been injected so far.
func (f *FlakyFS) Injected() int64 { return f.injected.Load() }

// trip rolls the dice for one fault site.
func (f *FlakyFS) trip(op, name string) error {
	f.mu.Lock()
	hit := f.rate > 0 && f.rng.Float64() < f.rate
	f.mu.Unlock()
	if !hit {
		return nil
	}
	f.injected.Add(1)
	return pathErr(op, name, ErrInjected)
}

func (f *FlakyFS) MkdirAll(path string) error { return f.inner.MkdirAll(path) }

func (f *FlakyFS) OpenAppend(name string) (File, error) {
	if err := f.trip("open", name); err != nil {
		return nil, err
	}
	h, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{fs: f, name: name, inner: h}, nil
}

func (f *FlakyFS) Open(name string) (io.ReadCloser, error) { return f.inner.Open(name) }
func (f *FlakyFS) ReadDir(dir string) ([]string, error)    { return f.inner.ReadDir(dir) }
func (f *FlakyFS) Stat(name string) (int64, error)         { return f.inner.Stat(name) }
func (f *FlakyFS) Remove(name string) error                { return f.inner.Remove(name) }

func (f *FlakyFS) Truncate(name string, size int64) error {
	if err := f.trip("truncate", name); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

func (f *FlakyFS) SyncDir(dir string) error {
	if err := f.trip("syncdir", dir); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// flakyFile injects write and sync faults on an open handle. A faulted
// write is torn — half the bytes land — so the caller's frame-repair logic
// gets real partial-write residue, not clean failure.
type flakyFile struct {
	fs    *FlakyFS
	name  string
	inner File
}

func (h *flakyFile) Write(p []byte) (int, error) {
	if err := h.fs.trip("write", h.name); err != nil {
		n, _ := h.inner.Write(p[:len(p)/2])
		return n, err
	}
	return h.inner.Write(p)
}

func (h *flakyFile) Sync() error {
	if err := h.fs.trip("sync", h.name); err != nil {
		return err
	}
	return h.inner.Sync()
}

func (h *flakyFile) Close() error { return h.inner.Close() }
