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
// over the accumulated input, which is what FullDisjunctionContext runs.
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

	live  int     // live components
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
	// first is the smallest member: the component's stable identity across
	// merges, and where a walk over Index.compOf meets it once.
	first int
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
	store               // the full closure store, extended in place by the next re-closure
	// gen counts the re-closures the record went into (uncache); assembled
	// rows (outRow) of an older generation are stale.
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

// Rebuilds reports how many Updates had to rebuild the tuple store because
// previously ingested rows no longer projected to their recorded tuples.
func (x *Index) Rebuilds() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.rebuilds
}

// UpdateContext ingests the accumulated integration set (all tables of the
// session, in a stable order; previously seen tables must come first and
// may only have grown) and returns the Full Disjunction of the whole set.
// Only components touched by new or re-deduplicated tuples are re-closed;
// see the Stats work counters for what was actually done. Every Update
// builds fresh Table.Rows and Prov slices and never writes to the ones it
// returned before, so a Result stays valid while later Updates run. The
// rows and provenance lists in them are shared with the index's assembled
// output and with later results: treat them as read-only.
//
// Cancellation is observed at component boundaries and inside component
// closures (see FullDisjunctionContext). A canceled Update keeps the
// ingested delta: its dirty marks persist, so the next Update simply
// re-closes the affected components — from their base tuples where the
// cancellation consumed a cached closure — without rebuilding the store.
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
	// The dictionary is complete now: one engine serves the rest.
	eng := &engine{dict: x.dict, nCols: x.nCols}

	// Stage 3: close every dirty component and cache its closure.
	if err := x.closeDirty(ctx, eng, opts, stats); err != nil {
		return nil, nil, err
	}

	// Stage 4: assemble, still under the lock — the rows and provenance
	// handed out are fresh slices no later Update writes to.
	stats.OuterUnion = len(x.base)
	stats.Values = x.dict.Len()
	stats.Components = x.live
	stats.Closure = x.closure
	stats.LargestComp, stats.LargestClose = x.largestComp, x.largestClose
	// The budget model's estimate for everything live, reported on every
	// Update — with or without a budget, and also when it closed nothing.
	base, perTuple := memoryModel(eng)
	stats.MemoryBytes = base + int64(len(x.base)+x.closure-x.covered)*perTuple
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
	widenCells(c.tuples, nCols)
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
	for id, c := range x.compOf {
		if c.first == id { // each live component once
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
// and skipped, so a pure-append session pays nothing here. The fuzzy
// pipeline hands the index a rewritten clone of a table only when the
// table's rewrite plan changed (an unchanged plan hands back the same
// clone), and a new clone is always re-verified.
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
			c = &comp{first: id}
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
// absorbed component's caches and dirty members, and the smaller first
// member.
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
	a.first = min(a.first, b.first)
	x.live--
	b.dead = true
	if b.queued && !a.queued {
		a.queued = true
		x.queue = append(x.queue, a)
	}
	return a
}

// seed prepares one dirty component's re-closure in the cached record it
// closes in, and returns the record with the worklist: the store positions
// whose pairs are unexamined — the dirty members'. There is one path. The
// cached closure with the largest store is the host and keeps its store:
// tuples, entry flags, signature index, postings and scratch are extended
// in place. The stores of the other (smaller) closures the component
// absorbed are appended behind it, deduplicated through the host's
// signatures — a new base tuple can equal a tuple one of them derived, and
// the store must stay a set for budget accounting to be exact — and are not
// put on the worklist: no pair across two previously separate components
// can merge (partition.go), so only the dirty members, appended last or
// refreshed where they already sit, need expanding. With no host at all (a
// new component, or one whose last closure failed) a fresh record holds the
// base tuples, without flags, and the worklist is nil: everything is
// expanded.
//
// The record lists every member, and x.pos holds each member's position in
// its store (closures keep seeds in place); closeDirty refills its kept
// tuples and rows.
func (x *Index) seed(c *comp, stats *Stats) (*cachedComp, []int) {
	var host *cachedComp
	for _, r := range c.caches {
		x.uncache(r)
		if host == nil || len(r.tuples) > len(host.tuples) {
			host = r
		}
	}
	fresh, caches := c.dirty, c.caches
	c.caches, c.dirty, c.queued = nil, nil, false

	if host == nil {
		rec := &cachedComp{members: fresh, store: store{tuples: make([]Tuple, len(fresh))}}
		for k, id := range fresh {
			rec.tuples[k] = x.base[id]
			x.cover[id], x.pos[id], x.dirty[id] = rec, int32(k), false
		}
		return rec, nil
	}

	st := &host.store
	if st.sigs == nil {
		st.sigs = newSigIndex(len(st.tuples))
		for i := range st.tuples {
			st.sigs.add(st.tuples[i].Cells, i)
		}
	}
	// add puts one tuple with its flags into the store, folding it into the
	// entry with identical cells if there is one, and reports where it sits.
	// Appended entries are posted when the closure brings the postings up to
	// date (closeOne). A base tuple can also land on an entry that was
	// derived until now: the entry turns base and enters the base postings
	// here, or no derived tuple would ever probe for it. (It may sit in the
	// derived postings too; a probe of both deduplicates.)
	add := func(t Tuple, f uint8) int32 {
		at, hash, ok := st.sigs.find(t.Cells, st.tuples)
		if ok {
			if !provContains(st.tuples[at].Prov, t.Prov) {
				st.tuples[at].Prov = mergeProv(st.tuples[at].Prov, t.Prov)
			}
			if st.post != nil && f&entryBase != 0 && st.flags[at]&entryBase == 0 {
				st.post.add(at, st.tuples[at].Cells)
				stats.SeedIndexedTuples++
			}
			st.flags[at] |= f
			return int32(at)
		}
		at = len(st.tuples)
		st.tuples, st.flags = append(st.tuples, t), append(st.flags, f)
		st.sigs.addHashed(hash, at)
		return int32(at)
	}
	members := host.members
	for _, r := range caches {
		if r == host {
			continue
		}
		to := make([]int32, len(r.tuples))
		for p := range r.tuples {
			to[p] = add(r.tuples[p], r.flags[p])
		}
		for _, id := range r.members {
			x.cover[id], x.pos[id] = host, to[x.pos[id]]
		}
		members = append(members, r.members...)
		r.store = store{}
	}
	work := make([]int, 0, len(fresh))
	for _, id := range fresh {
		x.dirty[id] = false
		if x.cover[id] != host {
			x.cover[id], x.pos[id] = host, add(x.base[id], entryBase)
			members = append(members, id)
		} else if p := x.pos[id]; !provContains(st.tuples[p].Prov, x.base[id].Prov) {
			st.tuples[p].Prov = mergeProv(st.tuples[p].Prov, x.base[id].Prov)
		}
		work = append(work, int(x.pos[id]))
	}
	host.members = members
	return host, work
}

// closeDirty closes every queued dirty component in one round: seed each
// (sorted by smallest member), close them one after another, and cache the
// closures on their components once all have closed. A round costs what its
// dirty components cost; clean components are not visited. The context is
// checked at every component boundary (and inside components by the
// closures). On failure every seeded member is marked dirty again, so the
// next Update re-closes those components from their base tuples. Callers
// hold x.mu.
func (x *Index) closeDirty(ctx context.Context, eng *engine, opts Options, stats *Stats) error {
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

	recs := make([]*cachedComp, len(dirty))
	work := make([][]int, len(dirty))
	seedExtra := 0 // reused closure tuples seeded into dirty comps, for budget parity
	for k, c := range dirty {
		recs[k], work[k] = x.seed(c, stats)
		seedExtra += len(recs[k].tuples) - len(recs[k].members)
	}
	stats.SeedReusedTuples += seedExtra
	stats.DirtyComponents += len(dirty)

	// The budget seeds with every tuple known to be live — base, the
	// cached closures' surplus, and the reused dirty seeds — so
	// Options.MaxBytes bounds the whole closure's estimate across
	// incremental runs.
	bud := newBudget(opts, len(x.base)+x.closure-x.covered+seedExtra, eng)

	largestDirty := 0
	for k, rec := range recs {
		err := Canceled(ctx.Err())
		var kept []Tuple
		var st Stats
		if err == nil {
			kept, st, err = eng.closeOne(ctx, rec, work[k], opts, bud)
		}
		if err != nil {
			for _, rec := range recs {
				rec.store = store{} // the next close starts from base tuples
				for _, id := range rec.members {
					x.markDirty(id)
				}
			}
			return err
		}
		stats.mergeWork(st)
		stats.ReclosedTuples += rec.closure
		// Stats.PivotColumn describes the work this run performed, so it is
		// the pivot of the largest component actually (re)closed — clean
		// components did no probing.
		if rec.closure > largestDirty {
			largestDirty = rec.closure
			stats.PivotColumn = st.PivotColumn
		}
		// The kept tuples are put in value order and decoded here, once —
		// rows the record's previous generation already decoded carry over.
		slices.SortFunc(kept, func(a, b Tuple) int { return eng.cmpCells(a.Cells, b.Cells) })
		rec.kept, rec.rows = kept, eng.decodeKept(kept, rec.kept, rec.rows)
		if opts.Progress != nil {
			opts.Progress(ComponentProgress{
				Done: k + 1, Total: len(recs), Closure: rec.closure,
				PivotColumn: st.PivotColumn, PivotSkipped: st.PivotSkipped,
			})
		}
	}
	for k, rec := range recs {
		x.cache(dirty[k], rec)
	}
	return nil
}
