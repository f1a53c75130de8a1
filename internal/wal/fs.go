// Package wal is the crash-safe persistence subsystem behind durable
// integration sessions: an append-only, length-prefixed, CRC32C-checksummed
// record log of added table batches — one fsync'd frame per Add. The log is
// the store: each frame declares the dictionary values it introduces and
// references every cell by symbol, so the log holds the session's input
// once and nothing is ever rewritten. Frame 0 may hold the caller's
// metadata instead (WriteMeta, ReadMeta): the daemon records a session's
// creation options there. A store directory holds wal-0.log and nothing
// else; Open refuses one that holds anything more, as the directories
// earlier versions wrote do, and leaves it as it is.
//
// Every write is fsynced: each log frame before it counts, and every
// directory entry the store creates (the log's, and each directory level
// Open makes) at its parent's SyncDir. A transient fault is retried on
// a fixed ladder (retryAttempts from retryBase, capped at maxBackoff)
// before the store degrades.
//
// Recovery replays the log, truncating a torn final frame instead of
// failing to open: a crash mid-Add loses at most the un-acknowledged frame
// being written, never an acknowledged one. A bad frame with acknowledged
// bytes after it fails the open instead. All I/O goes through the small FS interface so the recovery protocol is
// property-tested against injected faults — short writes, fsync errors,
// crash-at-byte-N with unsynced-data rollback, bit flips — byte-identical
// to an undisturbed in-memory session (see MemFS).
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem slice the log needs. Paths are slash-joined relative
// or absolute strings; the store never walks outside the directory it was
// opened on. OSFS is the real implementation; MemFS is the fault-injecting
// in-memory one used by crash tests.
//
// Durability contract (matching POSIX): file bytes become crash-durable at
// File.Sync; namespace changes — create, remove — become crash-durable at
// SyncDir of the parent directory.
type FS interface {
	// MkdirAll creates the directory and any missing parents.
	MkdirAll(dir string) error
	// OpenAppend opens the file for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Open opens the file for reading.
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists the names (not paths) of a directory's entries.
	ReadDir(dir string) ([]string, error)
	// Stat reports a file's size.
	Stat(name string) (int64, error)
	// Truncate cuts the file to size bytes — the torn-tail repair.
	Truncate(name string, size int64) error
	// Remove deletes a file or empty directory.
	Remove(name string) error
	// SyncDir makes a directory's entry changes crash-durable.
	SyncDir(dir string) error
}

// File is the writable log.
type File interface {
	io.Writer
	// Sync makes every written byte crash-durable.
	Sync() error
	io.Closer
}

// OSFS implements FS on the operating system's filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OSFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Stat(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// exists reports whether a path exists (as a file of any size).
func exists(fs FS, name string) bool {
	_, err := fs.Stat(name)
	return err == nil
}

// RemoveAll removes name and, when it is a directory, everything under it.
// Best effort: the first error is returned but later entries are still
// attempted.
func RemoveAll(fs FS, name string) error {
	names, _ := fs.ReadDir(name) // a file has none
	var first error
	for _, n := range names {
		if err := RemoveAll(fs, filepath.Join(name, n)); err != nil && first == nil {
			first = err
		}
	}
	if err := fs.Remove(name); err != nil && first == nil {
		first = err
	}
	return first
}

// pathErr annotates an error with the file it came from.
func pathErr(op, name string, err error) error {
	return fmt.Errorf("wal: %s %s: %w", op, name, err)
}
