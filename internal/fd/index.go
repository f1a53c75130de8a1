package fd

import (
	"context"
	"slices"
	"sync"
	"time"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// Index is the persistent Full Disjunction state of an integration
// session: the append-only value dictionary, the outer-union tuple store
// with its signature and posting indexes, the live connected components of
// that store, and each component's cached closure from the last Update.
// Repeated Updates over a growing integration set close only the *delta*,
// at a cost proportional to the rows they add: new tuples probe the
// existing component structure through the posting lists and join or merge
// the components they touch (membership is maintained right there, smaller
// component into larger), and each touched component extends its cached
// closure in place — see seed. Untouched components are not visited at all:
// their kept tuples already sit, in value order and decoded, in the
// assembled output the previous Update left behind.
//
// Correctness rests on the component confinement argument documented in
// partition.go: the mergeable-pair graph only ever gains vertices and
// edges as tuples arrive, so components can merge but never split, a
// component whose member set and provenance are unchanged has an unchanged
// closure, and no pair of tuples from the closures of two previously
// separate components can merge. Every Update therefore produces output
// byte-identical — tables and provenance — to a fresh Index's single Update
// over the accumulated input, which is what FullDisjunction runs.
//
// Update verifies, cheaply, that previously ingested rows still project to
// their recorded tuples under the current schema and dictionary. When they
// do not (a value-matching round elected different representatives, or
// content alignment re-mapped columns), the tuple store is rebuilt from
// scratch; the dictionary survives rebuilds, so interned symbols and the
// embedding work keyed on them stay amortized. A schema that only appends
// output columns widens the store instead: tuple signatures ignore trailing
// null cells (hashCells), so every cached closure keeps its indexes.
//
// An Index is safe for concurrent use, one Update at a time: every Update
// holds the index lock from reconcile through assembly, so each sees and
// leaves exactly one state. Options.Workers parallelizes the
// closures inside an Update.
type Index struct {
	mu sync.Mutex

	dict     *intern.Dict
	rebuilds int // verification failures that forced a full rebuild

	indexStore
}

// indexStore is everything a rebuild drops: the tuple store, its
// components and their cached closures. The dictionary survives.
type indexStore struct {
	nCols   int
	schema  Schema
	started bool

	rowsSeen []int   // per table: rows already ingested
	rowBase  [][]int // per table, per ingested row: base tuple id

	base []Tuple       // outer-union tuples, in ingest (outer-union) order
	sigs *sigIndex     // signature dedup over base
	post *postingIndex // posting lists over base, used to partition the delta
	seen stampSet      // ingest's probe deduplication, kept across updates

	// Per base tuple: its live component; the cached closure whose store
	// holds it (current only while that closure has a store) and its
	// position there; and the dirty mark — set on tuples that are new or
	// whose provenance grew since their component was last closed. Seeding
	// a component's re-closure clears its members' marks; a failed closure
	// (budget, cancellation) marks every member, so the next Update
	// re-closes the component from its base tuples.
	compOf []*comp
	cover  []*cachedComp
	pos    []int32
	dirty  []bool

	order []*comp // live components by smallest member; nil where one was absorbed
	live  int     // non-nil entries of order
	queue []*comp // components holding dirty members, awaiting closure

	// Running totals over the cached closures of live components: closure
	// tuples, the members they cover, and the largest component and closure
	// seen — components and closures only grow, so the maxima never need
	// recomputing.
	closure, covered          int
	largestComp, largestClose int

	// out is the assembled output of the last batch Update — every cached
	// closure's kept tuples in global value order — and published lists the
	// closures cached since, which the next assembly merges in (assemble.go).
	out       []outRow
	published []publication

	lastTables []*table.Table // per table, the object seen last Update
}

// comp is one live connected component of the base tuples. Components are
// created by ingest for tuples that join nothing, grow as tuples join them,
// and merge — the smaller member list into the larger — when a new tuple
// bridges two; they never split.
type comp struct {
	members []int // base tuple ids, in joining order
	first   int   // smallest member: the component's stable identity across merges
	slot    int   // position in Index.order
	// dirty lists the members carrying a dirty mark. A component with none
	// is clean: caches holds exactly one closure, covering every member.
	dirty []int
	// caches are the cached closures of member subsets: one after a close,
	// several after merges — the next closure's seed (see Index.seed).
	caches []*cachedComp
	queued bool // on Index.queue
	dead   bool // absorbed by a merge
}

// cachedComp is the closure of a set of base tuples as of its last close.
type cachedComp struct {
	members []int       // the base tuples closed; their store positions are Index.pos
	kept    []Tuple     // closure + subsumption result, in value order
	rows    []table.Row // kept, decoded (nil until needed after a widening)
	closure int         // closure size, for stats and budget accounting
	// store holds the full closure store. When the component goes dirty the
	// store is extended in place and only the new or changed base tuples (and
	// what they produce) are expanded, instead of re-deriving the closure
	// from base tuples: by fact 1 of complement.go every tuple the delta adds
	// is reached from a new base tuple through new tuples. A live entry's
	// provenance is the fixpoint {b base : b ⊑ entry}, which only grows; a
	// derived entry that has been extended is dead weight kept for signature
	// dedup and may lag. A closure a re-closure consumed has no store.
	store []Tuple
	// flags holds one byte per store entry, kept from the run that produced
	// the store and carried through every seeding rather than rebuilt from
	// Index.pos: entryBase (an outer-union tuple — what an expansion probes
	// for, fact 1) and entryExtended (some attempt strictly extended the
	// entry, so it is not maximal, fact 2; kept is the rest). Both only ever
	// get set: a derived entry turns base when an identical row arrives, and
	// a store only grows, so an extended entry stays extended.
	flags []uint8
	// sigs is the signature index covering store, post the postings of its
	// base entries, der the postings of the derived entries each run left
	// unextended, scr the closure's worklist scratch — kept from the run that
	// produced the store and extended by the next. der is nil until the store
	// is first extended (fact 3: a closure from scratch posts no derived
	// tuple); sigs, post and scr are nil after a singleton close or a hub
	// closed by pivot groups (closePivotPar). What is missing is built when
	// the store is next extended. An extension posts to the postings'
	// delta, which is folded into their frozen part as it grows
	// (postingIndex.post); post re-chooses its pivot column when the store
	// has doubled (postingIndex.rechoosePivot), and der follows.
	sigs      *sigIndex
	post, der *postingIndex
	scr       *closeScratch
	// gen counts the times the closure was consumed by a re-closure;
	// assembled rows (outRow) of an older generation are stale.
	gen uint32
}

// NewIndex returns an empty index. The schema is fixed by the first
// Update and may only be extended (new output columns appended) by later
// ones; any other schema change triggers a rebuild.
func NewIndex() *Index {
	return &Index{dict: intern.NewDict()}
}

// Values reports the size of the session dictionary (distinct interned
// values across all Updates, including rebuilt-away ones).
func (x *Index) Values() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.dict.Len()
}

// BaseTuples reports the current outer-union size.
func (x *Index) BaseTuples() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.base)
}

// Rebuilds reports how many Updates had to rebuild the tuple store because
// previously ingested rows no longer projected to their recorded tuples.
func (x *Index) Rebuilds() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.rebuilds
}

// Snapshot captures the current dictionary state; symbols in tuples held
// by the caller remain decodable through it regardless of later Updates.
func (x *Index) Snapshot() intern.Snapshot {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.dict.Snapshot()
}

// Update ingests the accumulated integration set (all tables of the
// session, in a stable order; previously seen tables must come first and
// may only have grown) and returns the Full Disjunction of the whole set.
// Only components touched by new or re-deduplicated tuples are re-closed;
// see the Stats work counters for what was actually done. Every Update
// builds fresh Table.Rows and Prov slices and never writes to the ones it
// returned before, so a Result stays valid while later Updates run. The
// rows and provenance lists in them are shared with the index's assembled
// output and with later results: treat them as read-only.
func (x *Index) Update(tables []*table.Table, schema Schema, opts Options) (*Result, error) {
	return x.UpdateContext(context.Background(), tables, schema, opts)
}

// UpdateContext is Update under a context. Cancellation is observed at
// component boundaries and inside component closures (see
// FullDisjunctionContext). A canceled Update keeps the ingested delta: its
// dirty marks persist, so the next Update simply re-closes the affected
// components — from their base tuples where the cancellation consumed a
// cached closure — without rebuilding the store.
func (x *Index) UpdateContext(ctx context.Context, tables []*table.Table, schema Schema, opts Options) (*Result, error) {
	start := time.Now()
	if err := schema.Validate(tables); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, Canceled(err)
	}

	var stats Stats
	stats.PivotColumn = -1
	for _, t := range tables {
		stats.InputTuples += len(t.Rows)
	}

	rows, prov, err := x.update(ctx, tables, schema, opts, &stats)
	if err != nil {
		return nil, err
	}
	out := table.New("FD", schema.Columns...)
	out.Rows = rows
	stats.Subsumed = stats.Closure - len(rows)
	stats.Output = len(rows)
	stats.Elapsed = time.Since(start)
	return &Result{Table: out, Prov: prov, Stats: stats}, nil
}

// update runs the stages of an Update under the index lock — reconcile,
// ingest, close the dirty components, assemble — and returns the result
// rows with their provenance.
func (x *Index) update(ctx context.Context, tables []*table.Table, schema Schema, opts Options, stats *Stats) ([]table.Row, [][]TID, error) {
	x.mu.Lock()
	defer x.mu.Unlock()

	// Stage 1: reconcile the schema, then verify that every previously
	// ingested row still projects to its recorded tuple. Drift rebuilds the
	// store (the dictionary survives).
	fits := !x.started || x.schemaExtends(tables, schema)
	if fits {
		x.widen(len(schema.Columns))
		fits = x.verify(tables, schema)
	}
	if !fits {
		x.reset()
		x.widen(len(schema.Columns))
	}
	x.schema = schema
	x.started = true

	// Stage 2: ingest the delta. New tuples dedup against the signature
	// index (re-deduplication dirties the owning component) or join the
	// components their posting-list neighbors belong to. Dirty marks persist
	// on the store until a closure is seeded from them.
	x.ingest(tables, schema, stats)
	x.lastTables = append([]*table.Table(nil), tables...)

	// Stage 3: close every dirty component and cache its closure.
	if err := x.closeDirty(ctx, opts, stats); err != nil {
		return nil, nil, err
	}

	// Stage 4: assemble, still under the lock — the rows and provenance
	// handed out are fresh slices no later Update writes to.
	eng := &engine{dict: x.dict.Snapshot(), nCols: x.nCols}
	stats.OuterUnion = len(x.base)
	stats.Values = x.dict.Len()
	stats.Components = x.live
	stats.Closure = x.closure
	stats.LargestComp, stats.LargestClose = x.largestComp, x.largestClose
	// The budget's estimate for everything live, reported whenever a budget
	// is set — also when this Update closed nothing.
	stats.MemoryBytes = newBudget(opts, len(x.base)+x.closure-x.covered, eng).bytes()
	rows, prov := x.assembleRows(eng)
	return rows, prov, nil
}

// reset drops the tuple store, indexes and components, keeping the
// dictionary (append-only by contract; stale symbols are harmless).
// Callers hold x.mu.
func (x *Index) reset() {
	x.indexStore = indexStore{}
	x.rebuilds++
}

// schemaExtends reports whether the new schema is an extension of the last
// Update's: previously seen tables keep their column mappings, existing
// output columns keep their positions, and new output columns only append.
func (x *Index) schemaExtends(tables []*table.Table, schema Schema) bool {
	old := x.schema
	if len(schema.Columns) < len(old.Columns) || len(tables) < len(x.rowsSeen) {
		return false
	}
	for i, name := range old.Columns {
		if schema.Columns[i] != name {
			return false
		}
	}
	for ti := range x.rowsSeen {
		if !slices.Equal(schema.Mapping[ti], old.Mapping[ti]) {
			return false
		}
	}
	return true
}

// widenCells extends cells to nCols with trailing nulls, in a fresh slice
// per tuple.
func widenCells(tuples []Tuple, nCols int) {
	for k := range tuples {
		nc := make([]uint32, nCols)
		copy(nc, tuples[k].Cells)
		tuples[k].Cells = nc
	}
}

// widenComp brings one cached closure to nCols output columns: its tuples
// gain trailing null cells. Signatures ignore trailing nulls and a posting
// index holds no list for a null cell, so both indexes — and with them the
// whole cache — stay valid.
func widenComp(c *cachedComp, nCols int) {
	widenCells(c.kept, nCols)
	widenCells(c.store, nCols)
	c.rows = nil // decoded at the old width
}

// widen brings the store to nCols output columns: tuples gain trailing
// null cells, which no index holds. Initializes the store on first use or
// after a reset. Callers hold x.mu.
func (x *Index) widen(nCols int) {
	if x.post == nil {
		x.nCols = nCols
		x.sigs = newSigIndex(0)
		x.post = newPostingIndex(-1)
		return
	}
	if nCols == x.nCols {
		return
	}
	widenCells(x.base, nCols)
	for _, c := range x.order {
		if c != nil {
			for _, r := range c.caches {
				widenComp(r, nCols)
			}
		}
	}
	x.nCols = nCols
}

// verify checks that every previously ingested row still projects to its
// recorded base tuple under the current schema and dictionary — the guard
// against value-matching rounds rewriting history. Runs after widen, so
// widths agree. Tables pointer-identical to the last Update are assumed
// unchanged (ingested rows must not be mutated, per the Update contract)
// and skipped, so a pure-append session pays nothing here; the fuzzy
// pipeline hands the index fresh rewritten clones each round, which are
// always re-verified.
func (x *Index) verify(tables []*table.Table, schema Schema) bool {
	if len(x.rowsSeen) == 0 {
		return true
	}
	scratch := make([]uint32, x.nCols)
	for ti := range x.rowsSeen {
		t := tables[ti]
		if ti < len(x.lastTables) && x.lastTables[ti] == t {
			continue
		}
		if x.rowsSeen[ti] > len(t.Rows) {
			return false // rows disappeared; not an extension
		}
		mapping := schema.Mapping[ti]
		for ri := 0; ri < x.rowsSeen[ti]; ri++ {
			row := t.Rows[ri]
			ok := true
			for ci := range row {
				if row[ci].IsNull {
					continue
				}
				sym, known := x.dict.Symbol(row[ci].Val)
				if !known {
					ok = false
					break
				}
				scratch[mapping[ci]] = sym
			}
			if ok && !slices.Equal(scratch, x.base[x.rowBase[ti][ri]].Cells) {
				ok = false
			}
			for ci := range row {
				if !row[ci].IsNull {
					scratch[mapping[ci]] = 0
				}
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// ingest projects and interns every not-yet-seen row, deduplicating
// against the signature index, then joins the genuinely new tuples to the
// components of their mergeable posting-list neighbors — merging those
// components when a tuple bridges several. Base tuples that are new or
// whose provenance grew get persistent dirty marks — the seeds of dirty
// components. The new tuples are posted as one batch before any of them
// joins (postingIndex.post), and each meets only the tuples stored before
// it, so components form as if the tuples had been posted one at a time.
// Callers hold x.mu.
func (x *Index) ingest(tables []*table.Table, schema Schema, stats *Stats) {
	mark := uint32(x.dict.Len())
	reused := make([]bool, mark+1)

	for len(x.rowsSeen) < len(tables) {
		x.rowsSeen = append(x.rowsSeen, 0)
		x.rowBase = append(x.rowBase, nil)
	}
	first := len(x.base)
	for ti, t := range tables {
		mapping := schema.Mapping[ti]
		for ri := x.rowsSeen[ti]; ri < len(t.Rows); ri++ {
			cells := make([]uint32, x.nCols)
			for ci, cell := range t.Rows[ri] {
				if cell.IsNull {
					continue
				}
				sym := x.dict.Intern(cell.Val)
				if sym <= mark && !reused[sym] {
					reused[sym] = true
					stats.ReusedValues++
				}
				cells[mapping[ci]] = sym
			}
			tid := TID{Table: ti, Row: ri}
			at, hash, ok := x.sigs.find(cells, x.base)
			if ok {
				x.base[at].Prov = mergeProv(x.base[at].Prov, []TID{tid})
				if at < first { // a new tuple is marked when it joins
					x.markDirty(at)
				}
				x.rowBase[ti] = append(x.rowBase[ti], at)
				continue
			}
			x.sigs.addHashed(hash, len(x.base))
			x.rowBase[ti] = append(x.rowBase[ti], len(x.base))
			x.base = append(x.base, Tuple{Cells: cells, Prov: []TID{tid}})
		}
		x.rowsSeen[ti] = len(t.Rows)
	}

	fresh := make([]int32, 0, len(x.base)-first)
	for id := first; id < len(x.base); id++ {
		fresh = append(fresh, int32(id))
	}
	x.post.post(x.base, fresh)
	for id := first; id < len(x.base); id++ {
		cells := x.base[id].Cells
		x.seen.next(id)
		var c *comp
		// The ingest index is unbucketed and posted in ID order, so its
		// lists ascend and the scan can stop at the tuples stored after id.
		x.post.candidatesBelow(id, id, cells, &x.seen, func(j int) {
			cj := x.compOf[j]
			if cj == c || !consistentCells(x.base[j].Cells, cells) {
				return
			}
			if c == nil {
				c = cj
			} else {
				c = x.mergeComps(c, cj)
			}
		})
		if c == nil {
			c = &comp{first: id, slot: len(x.order)}
			x.order = append(x.order, c)
			x.live++
		}
		c.members = append(c.members, id)
		if len(c.members) > x.largestComp {
			x.largestComp = len(c.members)
		}
		x.compOf = append(x.compOf, c)
		x.cover = append(x.cover, nil)
		x.pos = append(x.pos, 0)
		x.dirty = append(x.dirty, false)
		x.markDirty(id)
	}
}

// markDirty sets a base tuple's dirty mark and queues its component.
func (x *Index) markDirty(id int) {
	c := x.compOf[id]
	if !x.dirty[id] {
		x.dirty[id] = true
		c.dirty = append(c.dirty, id)
	}
	if !c.queued {
		c.queued = true
		x.queue = append(x.queue, c)
	}
}

// mergeComps merges two live components and returns the survivor: the one
// with more members absorbs the other, so relabeling costs each base tuple
// O(log n) moves over the index's life. The survivor takes over the
// absorbed component's caches and dirty members, and the earlier of the
// two slots in x.order.
func (x *Index) mergeComps(a, b *comp) *comp {
	if len(a.members) < len(b.members) {
		a, b = b, a
	}
	for _, id := range b.members {
		x.compOf[id] = a
	}
	a.members = append(a.members, b.members...)
	a.dirty = append(a.dirty, b.dirty...)
	a.caches = append(a.caches, b.caches...)
	if b.slot < a.slot {
		a.slot, b.slot = b.slot, a.slot
		a.first = b.first
		x.order[a.slot] = a
	}
	x.order[b.slot] = nil
	x.live--
	if len(x.order) > 2*x.live+32 {
		x.compactOrder()
	}
	b.dead = true
	if b.queued && !a.queued {
		a.queued = true
		x.queue = append(x.queue, a)
	}
	return a
}

// compactOrder squeezes the absorbed components' slots out of x.order.
func (x *Index) compactOrder() {
	live := x.order[:0]
	for _, c := range x.order {
		if c != nil {
			c.slot = len(live)
			live = append(live, c)
		}
	}
	clear(x.order[len(live):])
	x.order = live
}

// seed builds the re-closure job for one dirty component: the seed store holding every tuple already known for it and the worklist
// of store positions whose pairs are unexamined — the dirty members'. There
// is one path. The cached closure with the largest store is the host: its
// store, entry flags, signature index, postings and scratch are
// kept and extended in place. The stores of the other (smaller) closures
// the component absorbed are appended behind it, deduplicated through the
// host's signatures — a new base tuple can equal a tuple one of them
// derived, and the store must stay a set for budget accounting to be exact
// — and are not put on the worklist: no pair across two previously separate
// components can merge (partition.go), so only the dirty members, appended
// last or refreshed where they already sit, need expanding. With no host at
// all (a new component, or one whose last closure failed) the job is the
// degenerate case: the base tuples, everything to expand.
//
// The returned closure record — the host, or a fresh one — is emptied
// until closeDirty refills it; it already lists every member, and x.pos
// holds each member's position in the seed store (closures keep seeds in
// place).
func (x *Index) seed(c *comp, stats *Stats) (closeJob, *cachedComp) {
	var host *cachedComp
	for _, r := range c.caches {
		x.uncache(r)
		if host == nil || len(r.store) > len(host.store) {
			host = r
		}
	}
	fresh, caches := c.dirty, c.caches
	c.caches, c.dirty, c.queued = nil, nil, false

	if host == nil {
		rec := &cachedComp{members: fresh}
		tuples := make([]Tuple, len(fresh))
		for k, id := range fresh {
			tuples[k] = x.base[id]
			x.cover[id], x.pos[id], x.dirty[id] = rec, int32(k), false
		}
		return closeJob{tuples: tuples, base: len(tuples)}, rec
	}

	tuples, flags, sigs, post := host.store, host.flags, host.sigs, host.post
	if sigs == nil {
		sigs = newSigIndex(len(tuples))
		for i := range tuples {
			sigs.add(tuples[i].Cells, i)
		}
	}
	// add puts one tuple with its flags into the store, folding it into the
	// entry with identical cells if there is one, and reports where it sits.
	// Appended entries are posted when the closure brings the postings up to
	// date (newJobClosure). A base tuple can also land on an entry that was
	// derived until now: the entry turns base and enters the base postings
	// here, or no derived tuple would ever probe for it. (It may sit in the
	// derived postings too; a probe of both deduplicates.)
	add := func(t Tuple, f uint8) int32 {
		at, hash, ok := sigs.find(t.Cells, tuples)
		if ok {
			if !provContains(tuples[at].Prov, t.Prov) {
				tuples[at].Prov = mergeProv(tuples[at].Prov, t.Prov)
			}
			if post != nil && f&entryBase != 0 && flags[at]&entryBase == 0 {
				post.add(at, tuples[at].Cells)
				stats.SeedIndexedTuples++
			}
			flags[at] |= f
			return int32(at)
		}
		at = len(tuples)
		tuples, flags = append(tuples, t), append(flags, f)
		sigs.addHashed(hash, at)
		return int32(at)
	}
	members := host.members
	for _, r := range caches {
		if r == host {
			continue
		}
		to := make([]int32, len(r.store))
		for p := range r.store {
			to[p] = add(r.store[p], r.flags[p])
		}
		for _, id := range r.members {
			x.cover[id], x.pos[id] = host, to[x.pos[id]]
		}
		members = append(members, r.members...)
		r.store, r.flags, r.sigs, r.post, r.der, r.scr = nil, nil, nil, nil, nil, nil
	}
	work := make([]int, 0, len(fresh))
	for _, id := range fresh {
		x.dirty[id] = false
		if x.cover[id] != host {
			x.cover[id], x.pos[id] = host, add(x.base[id], entryBase)
			members = append(members, id)
		} else if p := x.pos[id]; !provContains(tuples[p].Prov, x.base[id].Prov) {
			tuples[p].Prov = mergeProv(tuples[p].Prov, x.base[id].Prov)
		}
		work = append(work, int(x.pos[id]))
	}
	job := closeJob{
		tuples: tuples, flags: flags, base: len(members), work: work,
		sigs: sigs, post: post, der: host.der, scr: host.scr,
	}
	host.members = members
	host.store, host.flags, host.sigs, host.post, host.der, host.scr = nil, nil, nil, nil, nil, nil
	return job, host
}

// closeDirty closes every queued dirty component in one round: seed each
// (sorted by smallest member), close the jobs, and cache the closures on
// their components. A round costs what its dirty components cost; clean
// components are not visited. On failure every seeded member is marked
// dirty again, so the next Update re-closes those components from their
// base tuples. Callers hold x.mu.
func (x *Index) closeDirty(ctx context.Context, opts Options, stats *Stats) error {
	if err := ctx.Err(); err != nil {
		return Canceled(err)
	}
	var dirty []*comp
	for _, c := range x.queue {
		if !c.dead { // components absorbed since they were queued are gone
			dirty = append(dirty, c)
		}
	}
	clear(x.queue)
	x.queue = x.queue[:0]
	slices.SortFunc(dirty, func(a, b *comp) int { return a.first - b.first })

	eng := &engine{dict: x.dict.Snapshot(), nCols: x.nCols}
	jobs := make([]closeJob, len(dirty))
	recs := make([]*cachedComp, len(dirty))
	seedExtra := 0 // reused closure tuples seeded into dirty comps, for budget parity
	for k, c := range dirty {
		jobs[k], recs[k] = x.seed(c, stats)
		seedExtra += len(jobs[k].tuples) - jobs[k].base
	}
	stats.SeedReusedTuples += seedExtra
	stats.DirtyComponents += len(jobs)

	// The budget seeds with every tuple known to be live — base, the
	// cached closures' surplus, and the reused dirty seeds — so
	// Options.MaxTuples keeps its "total closure size" meaning across
	// incremental runs.
	bud := newBudget(opts, len(x.base)+x.closure-x.covered+seedExtra, eng)

	// Each closed component's kept tuples are put in value order and
	// decoded here, once — rows the closure's previous generation already
	// decoded carry over. The closeEach assembler delivers on this
	// goroutine, so none of it needs extra synchronization.
	decoded := make([][]table.Row, len(jobs))
	hook := func(ci int, r compResult) {
		slices.SortFunc(r.kept, func(a, b Tuple) int { return eng.cmpCells(a.Cells, b.Cells) })
		decoded[ci] = eng.decodeKept(r.kept, recs[ci].kept, recs[ci].rows)
	}
	results, err := eng.closeSet(ctx, jobs, opts, bud, stats, hook)
	if err != nil {
		for _, rec := range recs {
			for _, id := range rec.members {
				x.markDirty(id)
			}
		}
		return err
	}

	largestDirty := 0
	for di := range results {
		r, rec := &results[di], recs[di]
		stats.ReclosedTuples += r.closure
		// Stats.PivotColumn describes the work this run performed, so it
		// is the pivot of the largest component actually (re)closed —
		// clean components did no probing.
		if r.closure > largestDirty {
			largestDirty = r.closure
			stats.PivotColumn = r.stats.PivotColumn
		}
		rec.kept, rec.rows, rec.closure = r.kept, decoded[di], r.closure
		rec.store, rec.flags, rec.sigs, rec.post, rec.der, rec.scr = r.store, r.flags, r.sigs, r.post, r.der, r.scr
		x.cache(dirty[di], rec)
	}
	return nil
}
