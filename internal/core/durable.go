package core

import (
	"errors"

	"fuzzyfd/internal/table"
	"fuzzyfd/internal/wal"
)

// ErrClosed is returned by write-side calls on a closed session. Read-side
// calls keep working after Close.
var ErrClosed = errors.New("core: session is closed")

// OpenSession opens a durable session backed by dir on fsys (nil means the
// operating system's filesystem), creating it if empty and recovering it
// otherwise. Every Add is appended to a checksummed write-ahead log and
// fsync'd before it is acknowledged; the log is the only thing the session
// writes, and a directory holding anything else, as the layouts earlier
// versions wrote do, fails the open untouched. Recovery replays the log and
// truncates a torn final record — a crash loses at most the Add it
// interrupted, never an acknowledged one — while a corrupt record with
// acknowledged ones after it fails the open. The log
// holds only the tables: the first Integrate after a reopen computes the
// integration from the recovered tables, as a fresh session fed them
// would, and later deltas extend it incrementally.
func OpenSession(cfg Config, dir string, fsys wal.FS) (*Session, error) {
	store, tables, err := wal.Open(dir, fsys)
	if err != nil {
		return nil, err
	}
	s := NewSession(cfg)
	s.store = store
	s.tables = tables
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

// Close releases the store. Further Append/Add calls fail; read-side calls
// and integrations keep working. It writes nothing, so it need not wait for
// a running integration: every acknowledged add is already durable.
// In-memory sessions no-op. Close is idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.store == nil {
		s.closed = true
		return nil
	}
	s.closed = true
	return s.store.Close()
}

// Degraded reports whether the session's log has given up on its
// filesystem: non-nil means writes are being rejected (with an error
// matching wal.ErrDegraded) while reads keep working. The next Append
// re-arms the log before it writes, so the mark clears on the first write
// after the filesystem heals. In-memory and closed sessions are never
// degraded.
func (s *Session) Degraded() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.store == nil || s.closed {
		return nil
	}
	return s.store.Degraded()
}
