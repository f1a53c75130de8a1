package server

import (
	"encoding/json"
	"errors"
	"log"
	"path/filepath"
	"sync"
	"time"

	"fuzzyfd"
	"fuzzyfd/internal/wal"
)

// errSessionLimit rejects a create or a reopen that would exceed
// Config.MaxSessions.
var errSessionLimit = errors.New("fuzzyfdd: session limit reached")

// session is one tenant: a fuzzyfd.Session plus its serving adjuncts — the
// ingestion batcher, the progress fan-out hub, and bookkeeping for idle
// eviction. The fuzzyfd.Session runs its integrations and result streams
// one at a time, so a stream observes exactly one integration state;
// sessions never serialize against each other.
type session struct {
	name string
	sess *fuzzyfd.Session
	bat  *batcher
	hub  *hub

	tb *tokenBucket // per-session ingestion rate limiter (nil: unlimited)

	created  time.Time
	lastUsed time.Time // guarded by registry.mu
}

// registry is the named-session table with the tenant cap. Its mutex is the
// one lock over a name's lifecycle: resolve opens, reopens and creates,
// deleteSession closes and removes, and evictIdle closes, each entirely
// under it, and the last two retire the session's metric series under it
// too. So a name is never opened while its previous incarnation is still
// closing, and a DELETE is never undone by a concurrent lazy reopen.
type registry struct {
	mu       sync.Mutex
	sessions map[string]*session
	max      int
}

// resolve returns the named session under the registry lock: the live one;
// else, on a durable server, the one its data directory holds, reopened
// with the options recorded there; else, when create is non-nil, a new one
// built from *create. created reports the last case. It returns nil, nil
// when the name exists nowhere, errSessionLimit when opening would exceed
// the cap, and the error when the session exists but will not open.
func (s *Server) resolve(name string, create *sessionOptions) (c *session, created bool, err error) {
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	if c = r.sessions[name]; c != nil {
		c.lastUsed = now
		return c, false, nil
	}
	opts, onDisk, err := s.loadOptions(name)
	if err != nil {
		return nil, false, err
	}
	if !onDisk {
		if create == nil {
			return nil, false, nil
		}
		opts = *create
	}
	if len(r.sessions) >= r.max {
		return nil, false, errSessionLimit
	}
	if c, err = s.newSession(name, opts, !onDisk); err != nil {
		if onDisk {
			log.Printf("fuzzyfdd: reopen session %q: %v", name, err)
		}
		return nil, false, err
	}
	c.created, c.lastUsed = now, now
	r.sessions[name] = c
	if onDisk {
		s.met.sessionsReopened.With().Inc()
	} else {
		s.met.sessionCreated(name)
	}
	return c, !onDisk, nil
}

// loadOptions reads, through the WAL filesystem and writing nothing, the
// creation options a durable session recorded as its log's first frame.
// onDisk is false when the server is not durable or the name has none; a
// directory the log cannot be read from, one in an earlier version's layout
// included, is an error naming it.
func (s *Server) loadOptions(name string) (opts sessionOptions, onDisk bool, err error) {
	dir, err := s.sessionDir(name)
	if dir == "" || err != nil {
		return opts, false, nil
	}
	data, err := wal.ReadMeta(dir, s.cfg.WALFS)
	if data == nil || err != nil {
		return opts, false, err
	}
	err = json.Unmarshal(data, &opts)
	return opts, err == nil, err
}

// deleteSession removes the named session for good under the registry
// lock: the live session is dropped, and on a durable server the data
// directory is removed from the WAL filesystem whether or not the session
// was live, and the removal is committed by syncing the directory that held
// it. found is false when the name exists nowhere.
func (s *Server) deleteSession(name string) (found bool, err error) {
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.sessions[name]; c != nil {
		s.drop(c)
		found = true
	}
	dir, _ := s.sessionDir(name)
	if dir == "" {
		return found, nil
	}
	if _, err := s.cfg.WALFS.Stat(dir); err != nil {
		return found, nil
	}
	if err := wal.RemoveAll(s.cfg.WALFS, dir); err != nil {
		return true, err
	}
	return true, s.cfg.WALFS.SyncDir(filepath.Dir(dir))
}

// drop removes c from the table, closes it, and retires its metric series,
// all under the registry lock, so no reopen of the name can slip between
// the close and the retirement and lose its own series. A durable
// session's log already holds every acknowledged add, so closing writes
// nothing. Caller holds s.reg.mu.
func (s *Server) drop(c *session) {
	delete(s.reg.sessions, c.name)
	if err := c.sess.Close(); err != nil {
		log.Printf("fuzzyfdd: close session %q: %v", c.name, err)
	}
	s.met.sessionEvicted(c.name)
}

// whileLive runs f under the registry lock if c is still the session
// registered under its name. Work that can outlive a session's retirement
// — a flight finishing after its DELETE, a request that resolved it just
// before — records its metrics through here, so it never writes a retired
// session's series back.
func (r *registry) whileLive(c *session, f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sessions[c.name] == c {
		f()
	}
}

// list snapshots the sessions sorted by nothing in particular; callers
// sort for presentation.
func (r *registry) list() []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*session, 0, len(r.sessions))
	for _, c := range r.sessions {
		out = append(out, c)
	}
	return out
}

func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// evictIdle drops the sessions idle longer than ttl with no batcher work in
// flight.
func (s *Server) evictIdle(ttl time.Duration) {
	cutoff := time.Now().Add(-ttl)
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.sessions {
		if c.lastUsed.Before(cutoff) && c.bat.idle() {
			s.drop(c)
		}
	}
}
