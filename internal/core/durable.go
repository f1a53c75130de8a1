package core

import (
	"errors"

	"fuzzyfd/internal/table"
	"fuzzyfd/internal/wal"
)

// ErrClosed is returned by write-side calls on a closed session. Read-side
// calls keep working after Close.
var ErrClosed = errors.New("core: session is closed")

// snapshotEvery is the number of durable log frames between automatic
// snapshots, taken after an Integrate and off the Append acknowledgement
// path. It balances the log tail a reopen replays against snapshot write
// amplification (each snapshot rewrites the accumulated tables). Either way
// the first Integrate after a reopen closes every component from the
// recovered tables.
const snapshotEvery = 16

// OpenSession opens a durable session backed by dir on fsys (nil means the
// operating system's filesystem), creating it if empty and recovering it
// otherwise. Every Add is appended to a checksummed write-ahead log and
// fsync'd before it is acknowledged, and the accumulated tables are
// compacted into a snapshot every snapshotEvery frames, so reopening
// replays a short log tail instead of the whole history. Recovery loads the
// latest committed snapshot, replays the log tail, and truncates a torn
// final record — a crash loses at most the Add it interrupted, never an
// acknowledged one. The snapshot and log hold only the tables: the first
// Integrate after a reopen computes the integration from the recovered
// tables, as a fresh session fed them would, and later deltas extend it
// incrementally.
func OpenSession(cfg Config, dir string, fsys wal.FS) (*Session, error) {
	store, rec, err := wal.Open(dir, fsys)
	if err != nil {
		return nil, err
	}
	s := NewSession(cfg)
	s.store = store
	s.snapEvery = snapshotEvery
	s.tables = rec.Tables
	return s, nil
}

// Append appends tables to the integration set, making them durable first
// when the session has a store: the batch is logged and fsync'd before it
// joins the in-memory set, so an error means the batch is in neither — the
// caller can retry or surface it, and the session stays consistent.
func (s *Session) Append(tables ...*table.Table) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.store != nil {
		if err := s.store.AppendAdd(tables); err != nil {
			return err
		}
	}
	s.tables = append(s.tables, tables...)
	return nil
}

// Durable reports whether the session persists its adds.
func (s *Session) Durable() bool { return s.store != nil }

// Flush forces a snapshot covering every acknowledged add, if any log
// frames are outstanding. In-memory sessions no-op.
func (s *Session) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(false)
}

// Close flushes outstanding log frames into a snapshot and releases the
// store, after any running integration finishes. Further Append/Add calls
// fail; read-side calls keep working. In-memory sessions no-op. Close is
// idempotent.
func (s *Session) Close() error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.store == nil {
		s.closed = true
		return nil
	}
	err := s.snapshotLocked(false)
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}

// maybeSnapshot compacts the log into a snapshot when enough frames have
// accumulated. Called after a successful Integrate, so that the snapshot's
// rewrite of the accumulated tables never delays an Append's
// acknowledgement, and required to be non-fatal: a failed snapshot leaves
// the log authoritative and is simply retried after the next Integrate.
func (s *Session) maybeSnapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.snapshotLocked(true)
	if err != nil {
		s.snapFails++
		s.snapErr = err
	}
	return err
}

// SnapshotFailures reports how many automatic snapshots have failed over
// the session's lifetime. Auto-snapshots are deliberately non-fatal — the
// log stays authoritative — so this counter is the only signal that
// compaction is not keeping up; operators should watch it.
func (s *Session) SnapshotFailures() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snapFails
}

// LastSnapshotError returns the most recent automatic-snapshot failure, or
// nil if none has failed.
func (s *Session) LastSnapshotError() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snapErr
}

// Degraded reports whether the session's log has given up on its
// filesystem: non-nil means writes are being rejected (with an error
// matching wal.ErrDegraded) while reads keep working. In-memory and closed
// sessions are never degraded.
func (s *Session) Degraded() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.store == nil || s.closed {
		return nil
	}
	return s.store.Degraded()
}

// Probe attempts to re-arm a degraded session's log. It returns nil when
// the session is healthy (or not durable) and an error while the
// filesystem is still failing. Appends also self-probe, so calling this is
// an optimization — it restores write availability before the next client
// write has to pay for the attempt.
func (s *Session) Probe() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil || s.closed {
		return nil
	}
	return s.store.Probe()
}

// snapshotLocked writes a snapshot of the session's accumulated tables.
// With auto set, it first checks the frame threshold. Callers hold s.mu,
// which excludes Append: everything in s.tables is already WAL-durable, so
// the snapshot never claims state the log does not cover.
func (s *Session) snapshotLocked(auto bool) error {
	if s.store == nil || s.closed {
		return nil
	}
	if s.store.FramesSinceSnapshot() == 0 {
		return nil
	}
	if auto && s.store.FramesSinceSnapshot() < s.snapEvery {
		return nil
	}
	return s.store.Snapshot(s.tables)
}
