package fd

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fuzzyfd/internal/intern"
)

// Concurrent worklist closure — the engine WithParallelFD uses inside one
// component. The round-based engine (closure.runParallel, kept as the
// RoundParallel ablation) synchronizes every round: workers propose merges
// against a frozen store, the coordinator sorts and applies them, and the
// next round starts. That barrier costs twice on hub components: duplicate
// proposals (every pair producing an already-known tuple allocates a
// proposal that the coordinator sorts and then discards) and idle workers
// at every round tail. This engine removes the rounds:
//
//   - The signature index is sharded by hash, so workers test-and-insert
//     produced tuples directly — deduplication happens at insert under one
//     shard lock instead of at the coordinator, and a duplicate costs a
//     probe, not a proposal.
//   - The tuple store is append-only and segmented; segment directories are
//     published atomically, so readers resolve any published tuple ID
//     without locks.
//   - Posting lists grow through atomically published chunk chains, so
//     candidate generation is lock-free. The (column, symbol) key set is
//     fixed after seeding — a merged tuple's symbols are a union of its
//     parents' — so the posting map itself is never mutated concurrently.
//   - Each worker owns a deque of pending expansions and steals half of a
//     victim's deque when its own drains, so one hub component keeps every
//     worker busy to the end.
//
// Output is byte-identical to the sequential engine: the closure is a
// fixpoint, so its tuple set is schedule-independent, and provenance
// converges to the same content-determined fixpoint (every base tuple b
// folds its provenance into every closure tuple ⊇ b, because the pair
// (b, t) is attempted by whichever of the two is indexed later). Store
// order is schedule-dependent, which downstream consumers never observe:
// subsumption picks canonical subsumers by content and materialization
// sorts by value order.

// concSegBits sizes tuple-store segments (1<<concSegBits tuples each).
const concSegBits = 10

const (
	concSegSize = 1 << concSegBits
	concSegMask = concSegSize - 1
)

type concSeg [concSegSize]Tuple

// concStore is the append-only concurrent tuple store. Tuple IDs are
// allocated by an atomic counter; the segment directory is republished
// atomically whenever it grows, so a reader that learned an ID from a
// published structure (a signature bucket or a posting list) also observes
// the directory and cells that were written before the ID was published.
type concStore struct {
	mu  sync.Mutex // guards directory growth
	dir atomic.Pointer[[]*concSeg]
	n   atomic.Int64
}

// alloc reserves the next tuple ID, growing the segment directory as
// needed. The caller must write the tuple before publishing the ID.
func (s *concStore) alloc() int {
	id := int(s.n.Add(1) - 1)
	for {
		dir := s.dir.Load()
		if dir != nil && id>>concSegBits < len(*dir) {
			return id
		}
		s.mu.Lock()
		dir = s.dir.Load()
		var nd []*concSeg
		if dir != nil {
			nd = append(nd, *dir...)
		}
		for id>>concSegBits >= len(nd) {
			nd = append(nd, new(concSeg))
		}
		s.dir.Store(&nd)
		s.mu.Unlock()
	}
}

// at returns the tuple slot for a published ID.
func (s *concStore) at(id int) *Tuple {
	dir := *s.dir.Load()
	return &dir[id>>concSegBits][id&concSegMask]
}

// len reports how many IDs have been allocated.
func (s *concStore) len() int { return int(s.n.Load()) }

// export copies the store into a flat slice, in ID order. Call only after
// all workers have quiesced.
func (s *concStore) export() []Tuple {
	out := make([]Tuple, s.len())
	for i := range out {
		out[i] = *s.at(i)
	}
	return out
}

// concSigShard is one lock-striped slice of the signature index.
type concSigShard struct {
	mu      sync.Mutex
	buckets map[uint64][]int
}

// concSig is the sharded signature index: tuple-cell hashes map to IDs,
// striped across shards by hash so concurrent test-and-insert operations
// on different tuples rarely contend.
type concSig struct {
	shards []concSigShard
	mask   uint64
}

func newConcSig(shards int) *concSig {
	s := &concSig{shards: make([]concSigShard, shards), mask: uint64(shards - 1)}
	for i := range s.shards {
		s.shards[i].buckets = make(map[uint64][]int)
	}
	return s
}

// find probes for a tuple with identical cells, without inserting.
func (s *concSig) find(store *concStore, hash uint64, cells []uint32) (id int, ok bool) {
	sh := &s.shards[hash&s.mask]
	sh.mu.Lock()
	for _, id := range sh.buckets[hash] {
		if slices.Equal(store.at(id).Cells, cells) {
			sh.mu.Unlock()
			return id, true
		}
	}
	sh.mu.Unlock()
	return 0, false
}

// insertOrGet atomically resolves cells to a tuple ID: if a tuple with
// identical cells is already indexed its ID is returned with existed=true;
// otherwise a fresh ID is allocated, the tuple is written to the store, and
// the ID is published under the shard lock. Exactly one caller wins any
// race to insert given cells, so tuple-budget accounting stays exact.
func (s *concSig) insertOrGet(store *concStore, hash uint64, cells []uint32, prov []TID) (id int, existed bool) {
	sh := &s.shards[hash&s.mask]
	sh.mu.Lock()
	for _, id := range sh.buckets[hash] {
		if slices.Equal(store.at(id).Cells, cells) {
			sh.mu.Unlock()
			return id, true
		}
	}
	id = store.alloc()
	*store.at(id) = Tuple{Cells: cells, Prov: prov}
	sh.buckets[hash] = append(sh.buckets[hash], id)
	sh.mu.Unlock()
	return id, false
}

// plChunkSize sizes posting-list chunks. Most lists in a component are
// short (a symbol shared by a handful of tuples); hot lists chain chunks.
const plChunkSize = 32

type plChunk struct {
	next  atomic.Pointer[plChunk]
	items [plChunkSize]int
}

// postingList is an append-only list of tuple IDs readable without locks:
// writers serialize on mu, link chunks before exposing their items, and
// publish growth through the atomic length, so a reader iterating up to a
// loaded length observes fully written items.
type postingList struct {
	mu   sync.Mutex
	n    atomic.Int64
	head plChunk
	tail *plChunk
	tn   int // items in tail, guarded by mu
}

func (p *postingList) append(id int) {
	p.mu.Lock()
	if p.tail == nil {
		p.tail = &p.head
	}
	if p.tn == plChunkSize {
		nc := new(plChunk)
		p.tail.next.Store(nc)
		p.tail = nc
		p.tn = 0
	}
	p.tail.items[p.tn] = id
	p.tn++
	p.n.Add(1)
	p.mu.Unlock()
}

// each calls fn for the IDs published at the time of the call, in append
// order, stopping early when fn returns false.
func (p *postingList) each(fn func(id int) bool) {
	n := int(p.n.Load())
	for ch, k := &p.head, 0; k < n; ch = ch.next.Load() {
		lim := n - k
		if lim > plChunkSize {
			lim = plChunkSize
		}
		for i := 0; i < lim; i++ {
			if !fn(ch.items[i]) {
				return
			}
		}
		k += lim
	}
}

// postKey packs an output column and a value symbol into one posting key.
func postKey(col int, sym uint32) uint64 { return uint64(col)<<32 | uint64(sym) }

// concPivotList is the pivot-bucketed counterpart of a postingList: one
// (column, symbol) posting list sub-bucketed by each tuple's pivot-column
// value. The fixed-key-set invariant the lock-free posting map relies on
// ("a merged tuple's symbols are a union of its parents'") does NOT extend
// to (list, pivot) pairs: a merged tuple inherits its pivot value from one
// parent but can carry a symbol only the other parent had, minting a pair
// no seed tuple exhibited. Buckets are therefore pre-minted at seed time
// (single-threaded), and mid-closure mints go through a locked
// copy-on-write slow path: the bucket map is immutable once published
// through the atomic pointer, growth copies it under mu and republishes.
// Reads stay lock-free; a reader on a just-replaced map misses only
// buckets minted concurrently, whose tuples expand later and probe back
// (the same later-side-probes argument the unbucketed engine makes).
type concPivotList struct {
	n       atomic.Int64 // ids published across all buckets, for skip accounting
	mu      sync.Mutex   // guards bucket-map growth
	buckets atomic.Pointer[map[uint32]*postingList]
}

// bucket returns the posting list for pivot value p, or nil when no tuple
// with that (symbol, pivot) pair has been published.
func (l *concPivotList) bucket(p uint32) *postingList {
	if m := l.buckets.Load(); m != nil {
		return (*m)[p]
	}
	return nil
}

// append publishes id under pivot value p, minting the bucket through the
// locked copy-on-write slow path when absent. Reports whether a bucket was
// minted.
func (l *concPivotList) append(p uint32, id int) (minted bool) {
	b := l.bucket(p)
	if b == nil {
		l.mu.Lock()
		old := l.buckets.Load()
		if old != nil {
			b = (*old)[p]
		}
		if b == nil {
			b = &postingList{}
			var nm map[uint32]*postingList
			if old != nil {
				nm = make(map[uint32]*postingList, len(*old)+1)
				for k, v := range *old {
					nm[k] = v
				}
			} else {
				nm = make(map[uint32]*postingList, 1)
			}
			nm[p] = b
			l.buckets.Store(&nm)
			minted = true
		}
		l.mu.Unlock()
	}
	b.append(id)
	l.n.Add(1)
	return minted
}

// concDeque is one worker's worklist of pending tuple expansions. The
// owner pushes and pops at the tail (LIFO keeps hot tuples cached);
// thieves take the older half from the head.
type concDeque struct {
	mu    sync.Mutex
	items []int
}

func (d *concDeque) push(id int) {
	d.mu.Lock()
	d.items = append(d.items, id)
	d.mu.Unlock()
}

func (d *concDeque) pushAll(ids []int) {
	d.mu.Lock()
	d.items = append(d.items, ids...)
	d.mu.Unlock()
}

func (d *concDeque) pop() (int, bool) {
	d.mu.Lock()
	n := len(d.items)
	if n == 0 {
		d.mu.Unlock()
		return 0, false
	}
	id := d.items[n-1]
	d.items = d.items[:n-1]
	d.mu.Unlock()
	return id, true
}

// stealHalf moves the older half of the deque into dst, reporting whether
// anything was stolen.
func (d *concDeque) stealHalf(dst *concDeque) bool {
	d.mu.Lock()
	n := len(d.items)
	if n == 0 {
		d.mu.Unlock()
		return false
	}
	k := (n + 1) / 2
	batch := append([]int(nil), d.items[:k]...)
	d.items = d.items[:copy(d.items, d.items[k:])]
	d.mu.Unlock()
	dst.pushAll(batch)
	return true
}

// provStripes stripes the per-tuple provenance locks (provenance is read
// at every successful merge and written at every duplicate fold; a small
// lock array keeps both cheap).
const provStripes = 64

// concClosure is the shared state of one concurrent component closure.
// Exactly one of post/postPiv is populated: post when pivot < 0 (the
// unbucketed ablation), postPiv when the closure is pivot-bucketed. Both
// maps have their (column, symbol) key set fixed after seeding; only
// postPiv's per-list bucket maps can still grow (see concPivotList).
type concClosure struct {
	eng     *engine
	store   *concStore
	sigs    *concSig
	post    map[uint64]*postingList
	postPiv map[uint64]*concPivotList
	pivot   int
	seeded  int // buckets pre-minted at seed time
	bud     *budget
	workers []*concWorker

	provMu  [provStripes]sync.Mutex
	pending atomic.Int64 // queued-but-unfinished expansions
	stop    atomic.Bool
	steals  atomic.Int64

	failOnce sync.Once
	firstErr error
}

func (cc *concClosure) fail(err error) {
	cc.failOnce.Do(func() { cc.firstErr = err })
	cc.stop.Store(true)
}

// prov snapshots a tuple's provenance. Published provenance slices are
// immutable (folds replace the header), so the snapshot is safe to read
// after the lock is released.
func (cc *concClosure) prov(id int) []TID {
	mu := &cc.provMu[id&(provStripes-1)]
	mu.Lock()
	p := cc.store.at(id).Prov
	mu.Unlock()
	return p
}

// foldParents unions two parents' provenance into a duplicate-production
// target, skipping the merge (and its allocations) when the target already
// carries both — the steady-state case.
func (cc *concClosure) foldParents(id int, pi, pj []TID) {
	mu := &cc.provMu[id&(provStripes-1)]
	mu.Lock()
	t := cc.store.at(id)
	if !provContains(t.Prov, pi) || !provContains(t.Prov, pj) {
		t.Prov = mergeProv(t.Prov, mergeProv(pi, pj))
	}
	mu.Unlock()
}

// concWorker is one closure worker: a deque, a candidate-dedup stamp set,
// and an amortized context poll.
type concWorker struct {
	cc       *concClosure
	id       int
	deque    concDeque
	scratch  stampSet
	chk      cancelCheck
	mbuf     []uint32 // reusable merge buffer (duplicate productions allocate nothing)
	attempts int
	skipped  int // candidate iterations avoided by pivot bucketing
	minted   int // buckets minted through the slow path
}

// steal takes work from another worker's deque, scanning victims round-
// robin from the worker's right neighbor.
func (w *concWorker) steal() (int, bool) {
	ws := w.cc.workers
	for k := 1; k < len(ws); k++ {
		v := ws[(w.id+k)%len(ws)]
		if v.deque.stealHalf(&w.deque) {
			w.cc.steals.Add(1)
			return w.deque.pop()
		}
	}
	return 0, false
}

func (w *concWorker) run() {
	cc := w.cc
	for {
		if cc.stop.Load() {
			return
		}
		id, ok := w.deque.pop()
		if !ok {
			id, ok = w.steal()
		}
		if !ok {
			if cc.pending.Load() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		w.expand(id)
		cc.pending.Add(-1)
	}
}

// expand merges one tuple against every indexed candidate sharing a value
// with it. Candidates published after the expansion's store snapshot are
// skipped: they expand later and probe this tuple then, so every pair is
// attempted by whichever side is expanded last. On a pivoted closure only
// the matching-pivot and null-pivot buckets of each posting list are
// iterated — any mergeable candidate is consistent on the pivot column, so
// it lives in one of the two — and because this tuple was fully indexed
// before it was queued, the bucket matching its own pivot value always
// exists; only the optional null bucket can be absent.
func (w *concWorker) expand(id int) {
	cc := w.cc
	// Snapshot the segment directory once; a candidate learned from a
	// posting list was fully published before the list entry, but its
	// segment may postdate this snapshot, so refresh on a miss.
	dir := *cc.store.dir.Load()
	at := func(j int) *Tuple {
		if j>>concSegBits >= len(dir) {
			dir = *cc.store.dir.Load()
		}
		return &dir[j>>concSegBits][j&concSegMask]
	}
	cells := at(id).Cells
	bound := cc.store.len()
	w.scratch.next(bound)
	ok := true
	visit := func(j int) bool {
		if j == id || j >= bound || w.scratch.seen(j) {
			return true
		}
		if cc.stop.Load() {
			ok = false
			return false
		}
		if err := w.chk.poll(); err != nil {
			cc.fail(err)
			ok = false
			return false
		}
		w.attempts++
		merged, mok := tryMergeInto(w.mbuf, cells, at(j).Cells)
		if !mok {
			return true
		}
		w.mbuf = merged
		hash := hashCells(merged)
		if k, found := cc.sigs.find(cc.store, hash, merged); found {
			// Duplicate production — the overwhelmingly common case:
			// fold the parents' provenance without allocating a merged
			// tuple's worth of cells or provenance first.
			cc.foldParents(k, cc.prov(id), cc.prov(j))
			return true
		}
		prov := mergeProv(cc.prov(id), cc.prov(j))
		k, existed := cc.sigs.insertOrGet(cc.store, hash, cloneCells(merged), prov)
		if existed {
			// Another worker inserted the same cells between the probe
			// and the insert; fold into its tuple instead.
			cc.foldParents(k, cc.prov(id), cc.prov(j))
			return true
		}
		if err := cc.bud.add(1); err != nil {
			cc.fail(err)
			ok = false
			return false
		}
		if cc.pivot >= 0 {
			p := merged[cc.pivot]
			for nc, nsym := range merged {
				if nsym != intern.Null {
					if cc.postPiv[postKey(nc, nsym)].append(p, k) {
						w.minted++
					}
				}
			}
		} else {
			for nc, nsym := range merged {
				if nsym != intern.Null {
					cc.post[postKey(nc, nsym)].append(k)
				}
			}
		}
		cc.pending.Add(1)
		w.deque.push(k)
		return true
	}
	for c, sym := range cells {
		if sym == intern.Null {
			continue
		}
		if cc.pivot < 0 {
			cc.post[postKey(c, sym)].each(visit)
			if !ok {
				return
			}
			continue
		}
		pl := cc.postPiv[postKey(c, sym)]
		if p := cells[cc.pivot]; p != intern.Null {
			// Load the total before the buckets: concurrent appends can then
			// only make scanned over-approximate the published total, so the
			// skip counter never overcounts (clamped at zero below).
			total := pl.n.Load()
			scanned := int64(0)
			if b := pl.bucket(p); b != nil {
				scanned += b.n.Load()
				b.each(visit)
				if !ok {
					return
				}
			}
			if b := pl.bucket(intern.Null); b != nil {
				scanned += b.n.Load()
				b.each(visit)
				if !ok {
					return
				}
			}
			if d := total - scanned; d > 0 {
				w.skipped += int(d)
			}
		} else if m := pl.buckets.Load(); m != nil {
			// Null-pivot probe: consistent with every pivot value, so every
			// bucket must be scanned.
			for _, b := range *m {
				b.each(visit)
				if !ok {
					return
				}
			}
		}
	}
}

// resolveShards picks the signature-shard count for the concurrent engine:
// the Options override rounded up to a power of two, or an autotuned
// default of 8 shards per worker (bounded) — enough that the birthday
// collision rate on shard locks stays low without spraying tiny maps.
func resolveShards(opts Options) int {
	n := opts.Shards
	if n <= 0 {
		n = 8 * opts.Workers
		if n < 16 {
			n = 16
		}
		if n > 512 {
			n = 512
		}
	}
	if n > 1024 {
		n = 1024
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// closeConcurrent closes a seeded store under pairwise complementation with
// the work-stealing engine. seed is the initial store (deduplicated; base
// tuples and any closure tuples reused from a previous run, which keep
// their positions in the returned store); work
// lists the store IDs whose pairs have not been examined yet (nil expands
// everything — a from-scratch closure); pivot is the bucketing column for
// the posting lists (-1 = unbucketed). Returns the closed store, whose
// tuple set and provenance are byte-equivalent to the sequential engine's
// up to order.
func closeConcurrent(ctx context.Context, eng *engine, seed []Tuple, work []int, workers, shards, pivot int, bud *budget, stats *Stats) ([]Tuple, error) {
	if len(seed) > 0 {
		if err := bud.check(); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, Canceled(err)
	}
	cc := &concClosure{
		eng:   eng,
		store: &concStore{},
		sigs:  newConcSig(shards),
		pivot: pivot,
		bud:   bud,
	}
	if pivot >= 0 {
		cc.postPiv = make(map[uint64]*concPivotList)
	} else {
		cc.post = make(map[uint64]*postingList)
	}
	stats.PivotColumn = pivot
	// Seed the store, signature shards, and posting lists single-threaded;
	// the concurrent phase only ever appends to posting lists whose
	// (column, symbol) keys already exist (a merged tuple's symbols are a
	// union of its parents'). Pivot buckets are pre-minted here for every
	// (list, pivot) pair a seed tuple exhibits; merged tuples can still
	// mint pairs no seed had — the concPivotList slow path covers those.
	for i := range seed {
		id := cc.store.alloc()
		*cc.store.at(id) = seed[i]
		hash := hashCells(seed[i].Cells)
		sh := &cc.sigs.shards[hash&cc.sigs.mask]
		sh.buckets[hash] = append(sh.buckets[hash], id)
		for c, sym := range seed[i].Cells {
			if sym == intern.Null {
				continue
			}
			key := postKey(c, sym)
			if pivot >= 0 {
				pl := cc.postPiv[key]
				if pl == nil {
					pl = &concPivotList{}
					cc.postPiv[key] = pl
				}
				if pl.append(seed[i].Cells[pivot], id) {
					cc.seeded++
				}
				continue
			}
			pl := cc.post[key]
			if pl == nil {
				pl = &postingList{}
				cc.post[key] = pl
			}
			pl.append(id)
		}
	}
	if work == nil {
		work = make([]int, len(seed))
		for i := range work {
			work[i] = i
		}
	}
	if len(work) == 0 {
		stats.PivotBuckets += cc.seeded
		return cc.store.export(), nil
	}
	cc.pending.Store(int64(len(work)))

	cc.workers = make([]*concWorker, workers)
	for wi := range cc.workers {
		cc.workers[wi] = &concWorker{
			cc:  cc,
			id:  wi,
			chk: cancelCheck{ctx: ctx, left: cancelEvery},
		}
		lo, hi := wi*len(work)/workers, (wi+1)*len(work)/workers
		cc.workers[wi].deque.pushAll(work[lo:hi])
	}
	var wg sync.WaitGroup
	for _, w := range cc.workers {
		wg.Add(1)
		go func(w *concWorker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	wg.Wait()
	if cc.firstErr != nil {
		return nil, cc.firstErr
	}
	stats.Merges += cc.store.len() - len(seed)
	minted := 0
	for _, w := range cc.workers {
		stats.MergeAttempts += w.attempts
		stats.PivotSkipped += w.skipped
		minted += w.minted
	}
	stats.PivotMinted += minted
	stats.PivotBuckets += cc.seeded + minted
	stats.StolenBatches += int(cc.steals.Load())
	if shards > stats.Shards {
		stats.Shards = shards
	}
	return cc.store.export(), nil
}
