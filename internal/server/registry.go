package server

import (
	"sync"
	"time"

	"fuzzyfd"
)

// session is one tenant: a fuzzyfd.Session plus its serving adjuncts — the
// ingestion batcher, the progress fan-out hub, and bookkeeping for idle
// eviction. The fuzzyfd.Session runs its integrations and result streams
// one at a time, so a stream observes exactly one integration state;
// sessions never serialize against each other.
type session struct {
	name string
	dir  string // data directory of a durable session, "" otherwise
	sess *fuzzyfd.Session
	bat  *batcher
	hub  *hub

	tb *tokenBucket // per-session ingestion rate limiter (nil: unlimited)

	mu       sync.Mutex
	lastUsed time.Time
	created  time.Time
}

// touch records a request against idle eviction.
func (c *session) touch() {
	c.mu.Lock()
	c.lastUsed = time.Now()
	c.mu.Unlock()
}

func (c *session) idleSince() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastUsed
}

// registry is the named-session table with the tenant cap. closing marks
// names whose session has left the map but whose store is still being
// closed (janitor eviction, DELETE): a lazy durable reopen of the same name
// must not open the write-ahead log while the departing store still holds
// it, so put waits for the mark to clear.
type registry struct {
	mu       sync.Mutex
	sessions map[string]*session
	closing  map[string]chan struct{}
	max      int
}

// get returns the named session, touching it, or nil.
func (r *registry) get(name string) *session {
	r.mu.Lock()
	c := r.sessions[name]
	r.mu.Unlock()
	if c != nil {
		c.touch()
	}
	return c
}

// put inserts a session built by mk under name. It reports created=false
// if the name already exists (the existing session is returned — creation
// is idempotent) and full=true when the tenant cap blocks a new one. mk
// runs outside the registry lock only in spirit — construction is cheap,
// and holding the lock keeps create-vs-create races trivially correct.
func (r *registry) put(name string, mk func() (*session, error)) (c *session, created, full bool, err error) {
	r.mu.Lock()
	for {
		ch := r.closing[name]
		if ch == nil {
			break
		}
		// The name's previous incarnation is mid-close; wait it out so mk
		// never opens a store the departing session still holds.
		r.mu.Unlock()
		<-ch
		r.mu.Lock()
	}
	defer r.mu.Unlock()
	if c = r.sessions[name]; c != nil {
		c.touch()
		return c, false, false, nil
	}
	if len(r.sessions) >= r.max {
		return nil, false, true, nil
	}
	c, err = mk()
	if err != nil {
		return nil, false, false, err
	}
	now := time.Now()
	c.created, c.lastUsed = now, now
	r.sessions[name] = c
	return c, true, false, nil
}

// remove deletes and returns the named session, marking the name closing
// until the caller's finishClose — a concurrent lazy reopen must not open
// the store mid-close or race a directory removal.
func (r *registry) remove(name string) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.sessions[name]
	delete(r.sessions, name)
	r.markClosing(name)
	return c
}

// markClosing records name as mid-close. Caller holds r.mu.
func (r *registry) markClosing(name string) {
	if r.closing == nil {
		r.closing = make(map[string]chan struct{})
	}
	if _, ok := r.closing[name]; !ok {
		r.closing[name] = make(chan struct{})
	}
}

// finishClose clears a closing mark, releasing reopens waiting on the name.
// Idempotent: a second call for the same mark is a no-op.
func (r *registry) finishClose(name string) {
	r.mu.Lock()
	ch := r.closing[name]
	delete(r.closing, name)
	r.mu.Unlock()
	if ch != nil {
		close(ch)
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

// evictIdle removes sessions idle longer than ttl with no batcher work in
// flight, returning the evicted set.
func (r *registry) evictIdle(ttl time.Duration) []*session {
	cutoff := time.Now().Add(-ttl)
	r.mu.Lock()
	defer r.mu.Unlock()
	var evicted []*session
	for name, c := range r.sessions {
		if c.idleSince().Before(cutoff) && c.bat.idle() {
			delete(r.sessions, name)
			r.markClosing(name)
			evicted = append(evicted, c)
		}
	}
	return evicted
}
