package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"fuzzyfd"
)

// errQueueFull rejects an add whose session already has a full accumulating
// flight — the bounded-ingestion-queue admission signal, surfaced as a
// typed 429 so clients back off instead of piling memory onto the daemon.
var errQueueFull = errors.New("fuzzyfdd: session ingestion queue is full")

// batcher coalesces concurrent table-adds to one session into single
// incremental integrations. One flight runs at a time; adds arriving while
// it runs accumulate into the next flight, so a burst of N concurrent
// requests costs at most two Integrate calls (the one in progress plus one
// for everything that piled up behind it) instead of N — and every waiter
// gets the result of an integration that includes its tables.
//
// Coalescing is strictly per session: flights of different sessions run
// independently, and nothing here serializes tenants against each other.
type batcher struct {
	sess     *fuzzyfd.Session
	wg       *sync.WaitGroup              // the server's drain group; flights count against it
	maxQueue int                          // tables one accumulating flight may hold (0: unbounded)
	sem      chan struct{}                // server-wide in-flight integration slots (nil: unbounded)
	waited   func()                       // metrics bridge: a flight blocked on a sem slot
	hook     func()                       // test hook: runs before each flight integrates
	done     func(*fuzzyfd.Result, error) // metrics bridge, called once per flight
	panicked func(v any)                  // panic bridge (metrics + stack log), called per recovered panic

	mu      sync.Mutex
	cur     *flight // accumulating flight, not yet launched (nil when empty)
	running bool    // a launched flight has not finished its chain step
}

// flight is one coalesced integration: the tables batched into it and the
// shared outcome its waiters read after done closes.
type flight struct {
	tables []*fuzzyfd.Table
	done   chan struct{}
	res    *fuzzyfd.Result
	err    error
}

// add batches the table into the current accumulating flight, launching it
// if none is running, and waits for that flight's integration. All waiters
// of a flight share one result. If ctx dies first, add returns its error —
// but the table is already committed to the flight and will be integrated.
func (b *batcher) add(ctx context.Context, tables ...*fuzzyfd.Table) (*fuzzyfd.Result, error) {
	b.mu.Lock()
	if b.cur == nil {
		b.cur = &flight{done: make(chan struct{})}
	}
	if b.maxQueue > 0 && len(b.cur.tables)+len(tables) > b.maxQueue {
		b.mu.Unlock()
		return nil, errQueueFull
	}
	b.cur.tables = append(b.cur.tables, tables...)
	f := b.cur
	if !b.running {
		b.running = true
		b.cur = nil
		b.wg.Add(1)
		go b.run(f)
	}
	b.mu.Unlock()

	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run executes one flight, then chains into whatever accumulated while it
// ran. The next flight's wg.Add happens before this one's wg.Done, so the
// drain group never reads zero mid-chain.
func (b *batcher) run(f *flight) {
	b.integrate(f)
	if b.done != nil {
		b.done(f.res, f.err)
	}
	close(f.done)

	b.mu.Lock()
	next := b.cur
	if next != nil {
		b.cur = nil
		b.wg.Add(1)
		go b.run(next)
	} else {
		b.running = false
	}
	b.mu.Unlock()
	b.wg.Done()
}

// integrate performs one flight's append and integration. A panic anywhere
// inside — the engine, the progress hub, the test hook — is contained to
// the flight: recovered, reported through panicked, and surfaced to the
// flight's waiters as an error. Letting it escape would unwind run's
// chain/wg bookkeeping and kill the whole daemon for one tenant's bug.
func (b *batcher) integrate(f *flight) {
	defer func() {
		if p := recover(); p != nil {
			if b.panicked != nil {
				b.panicked(p)
			}
			f.res, f.err = nil, fmt.Errorf("fuzzyfdd: integration panicked: %v", p)
		}
	}()
	// The global in-flight limiter queues flights rather than failing them:
	// waiters already hold acknowledged-in-queue tables, so backpressure —
	// not rejection — is the correct shape here. Admission rejection happens
	// earlier, at the bounded queue and the rate limiter. The slot is taken
	// before the test hook so tests can observe a flight holding one.
	if b.sem != nil {
		select {
		case b.sem <- struct{}{}:
		default:
			if b.waited != nil {
				b.waited()
			}
			b.sem <- struct{}{}
		}
		defer func() { <-b.sem }()
	}
	if b.hook != nil {
		b.hook()
	}
	// Append, not Add: on a durable session the batch must be logged and
	// fsync'd before anyone is told it integrated; a failed append fails
	// the flight without poisoning the session.
	if err := b.sess.Append(f.tables...); err != nil {
		f.err = err
		return
	}
	f.res, f.err = b.sess.IntegrateContext(context.Background())
}

// idle reports whether no flight is running or accumulating — the
// eviction-safety check.
func (b *batcher) idle() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.running && b.cur == nil
}
