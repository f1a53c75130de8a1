package fd

import (
	"bytes"
	"context"
	"math"
	"slices"

	"fuzzyfd/internal/intern"
)

// cancelEvery is how many candidate expansions pass between context polls
// inside a component closure. Small enough that a deadline interrupts even
// the hub component that dominates wall-clock on data-lake inputs, large
// enough that the poll is invisible next to the merge work it brackets.
const cancelEvery = 1024

// cancelCheck amortizes context polling over cancelEvery calls. The zero
// countdown forces a poll on the first call, so a dead context is noticed
// before any work happens.
type cancelCheck struct {
	ctx  context.Context
	left int
}

// poll returns a Canceled-wrapped error once the context is dead, checking
// the context only every cancelEvery calls.
func (c *cancelCheck) poll() error {
	if c.left > 0 {
		c.left--
		return nil
	}
	c.left = cancelEvery
	if err := c.ctx.Err(); err != nil {
		return Canceled(err)
	}
	return nil
}

// postingIndex is an inverted index from (output column, value symbol) to
// the tuples holding that symbol. Complementation candidates must share at
// least one equal non-null value, so scanning a tuple's posting lists
// enumerates exactly the connected pairs. Keys are interned symbols, so a
// probe hashes one machine word instead of a cell's text.
//
// The postings live in two parts. The frozen part is one CSR array: ids
// holds every list back to back as int32 store IDs, and lists maps a
// (column, symbol) key to its list's place in it. The delta holds what was
// posted since, chained per list like the signature index's IDs. Most
// postings sit in the frozen part (see post): the first batch builds it,
// and a pivot change or the batch that would make the delta as large as the
// frozen part rebuilds it over both parts and the batch, so each posting is
// rebuilt O(1) times, amortized.
//
// With pivot >= 0 the index is pivot-bucketed by the component's most
// selective column (see choosePivot). Two tuples holding different non-null
// pivot values are inconsistent on that column, so a probe for a tuple with
// pivot value p only iterates each of its lists' p-bucket and null bucket —
// candidates that conflict on the pivot are skipped without being iterated.
// A frozen list is ordered by pivot symbol, null first, then by ID, so both
// buckets are runs of the list itself, found by binary search over pivs,
// the entries' pivot symbols. The delta is not bucketed: each of its entries
// carries its tuple's pivot symbol, and a probe passes over those holding
// another pivot value, counting them as skipped like the frozen part's.
type postingIndex struct {
	// lists maps listKey(column, symbol) to the list's number k. The frozen
	// part holds lists 0 to len(offs)-2: list k is ids[offs[k]:offs[k+1]],
	// and pivs[offs[k]:offs[k+1]] holds its entries' pivot symbols (nil
	// when unbucketed). A list first posted to since the build is only in
	// the delta.
	lists map[uint64]int32
	offs  []int32
	ids   []int32
	pivs  []uint32
	// The delta chains the entries posted since the build, in posting
	// order: head[k] and tail[k] are list k's first and last (-1 = none;
	// both are nil while the delta is empty), next[e] the entry posted to
	// the same list after entry e, and ents[e] entry e's tuple's pivot
	// symbol << 32 | store ID.
	head, tail, next []int32
	ents             []uint64

	// frozenN and deltaN count the tuples in each part's lists (an all-null
	// tuple is in none).
	frozenN, deltaN int
	pivot           int // the column the lists are bucketed by, or -1
	// pivotAt is the store size the pivot was chosen at. A cached index
	// outlives the seed it was bucketed for — a component first indexed
	// below pivotMinTuples would stay unbucketed for life — so once the
	// store has doubled the pivot is chosen again (see rechoosePivot).
	pivotAt int
	buckets int // (list, pivot-value) buckets of the frozen part
	// upTo is the store length the index is up to date for: entries below it
	// have been posted if they qualified then (see postFrom).
	upTo int
}

// listKey packs an output column and a value symbol into a list key.
func listKey(c int, sym uint32) uint64 { return uint64(c)<<32 | uint64(sym) }

// newPostingIndex returns an empty index bucketed by the given pivot column
// (-1 = unbucketed).
func newPostingIndex(pivot int) *postingIndex {
	return &postingIndex{pivot: pivot}
}

// indexAll returns an index over every tuple of a store, bucketed by the
// given pivot column (-1 = unbucketed).
func indexAll(tuples []Tuple, pivot int) *postingIndex {
	idx := newPostingIndex(pivot)
	ids := make([]int32, len(tuples))
	for i := range ids {
		ids[i] = int32(i)
	}
	idx.post(tuples, ids)
	idx.pivotAt = len(tuples)
	return idx
}

// pivotRun returns the run of a frozen list whose pivot symbol is p: found
// by binary search over the entries' pivot symbols (the null run leads the
// list), then scanned to its end.
func pivotRun(list []int32, pivs []uint32, p uint32) []int32 {
	lo := 0
	if p != intern.Null {
		lo, _ = slices.BinarySearch(pivs, p)
	}
	hi := lo
	for hi < len(pivs) && pivs[hi] == p {
		hi++
	}
	return list[lo:hi]
}

// build replaces both parts with a frozen part holding the given tuples
// (store IDs, ascending), in two passes over them: count each list's
// entries, then fill the lists. The tuples are visited in pivot order, null
// first, then by ID, so every list comes out ordered the same way.
func (idx *postingIndex) build(tuples []Tuple, ids []int32) {
	p := idx.pivot
	var keys []uint64 // with a pivot: each tuple's (pivot symbol, ID), sorted
	if p >= 0 {
		keys = make([]uint64, len(ids))
		for k, id := range ids {
			keys[k] = uint64(tuples[id].Cells[p])<<32 | uint64(id)
		}
		slices.Sort(keys)
		for k, key := range keys {
			ids[k] = int32(uint32(key))
		}
	}
	nLists := len(idx.lists) // at most the old parts' lists
	idx.lists, idx.offs, idx.ids, idx.pivs = nil, nil, nil, nil
	idx.head, idx.tail, idx.next, idx.ents = nil, nil, nil, nil
	idx.frozenN, idx.deltaN, idx.buckets = 0, 0, 0
	if len(ids) == 0 {
		return
	}

	// Pass 1: count each list's entries into offs, and its pivot buckets.
	// last[k] is 1 + the pivot run (of ids) that list k last saw an entry of.
	lists := make(map[uint64]int32, nLists)
	offs := make([]int32, 0, nLists+1)
	var last []int32
	total, run := 0, int32(0)
	for k, id := range ids {
		cells := tuples[id].Cells
		if p >= 0 && k > 0 && keys[k]>>32 != keys[k-1]>>32 {
			run++
		}
		if !allNull(cells) {
			idx.frozenN++
		}
		for c, sym := range cells {
			if sym == intern.Null {
				continue
			}
			key := listKey(c, sym)
			at, ok := lists[key]
			if !ok {
				at = int32(len(offs))
				lists[key] = at
				offs = append(offs, 0)
				if p >= 0 {
					last = append(last, 0)
				}
			}
			offs[at]++
			if p >= 0 && last[at] != run+1 {
				last[at] = run + 1
				idx.buckets++
			}
			total++
		}
	}

	// Pass 2: turn the counts into list ends, then fill every list from its
	// end, visiting the tuples backwards, so each offset lands on its list's
	// start and each list keeps the visiting order.
	end := int32(0)
	for k := range offs {
		end += offs[k]
		offs[k] = end
	}
	offs = append(offs, end)
	flat := make([]int32, total)
	var pivs []uint32
	if p >= 0 {
		pivs = make([]uint32, total)
	}
	for k := len(ids) - 1; k >= 0; k-- {
		id := ids[k]
		cells := tuples[id].Cells
		for c, sym := range cells {
			if sym == intern.Null {
				continue
			}
			at := lists[listKey(c, sym)]
			offs[at]--
			flat[offs[at]] = id
			if p >= 0 {
				pivs[offs[at]] = cells[p]
			}
		}
	}
	idx.lists, idx.offs, idx.ids, idx.pivs = lists, offs, flat, pivs
}

// heldIDs returns the store IDs of every tuple the index holds, ascending;
// all of them lie below upTo.
func (idx *postingIndex) heldIDs() []int32 {
	if idx.frozenN+idx.deltaN == 0 {
		return nil
	}
	mark := make([]bool, idx.upTo)
	for _, id := range idx.ids {
		mark[id] = true
	}
	for _, e := range idx.ents {
		mark[uint32(e)] = true
	}
	ids := make([]int32, 0, idx.frozenN+idx.deltaN)
	for id, ok := range mark {
		if ok {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// add posts tuple id, holding cells, to the delta.
func (idx *postingIndex) add(id int, cells []uint32) {
	e := uint64(id)
	if idx.pivot >= 0 {
		e |= uint64(cells[idx.pivot]) << 32
	}
	if idx.head == nil {
		idx.head = slices.Repeat([]int32{-1}, max(len(idx.offs)-1, 0))
		idx.tail = slices.Clone(idx.head)
	}
	for c, sym := range cells {
		if sym == intern.Null {
			continue
		}
		key := listKey(c, sym)
		k, ok := idx.lists[key]
		if !ok {
			if idx.lists == nil {
				idx.lists = make(map[uint64]int32)
			}
			k = int32(len(idx.head))
			idx.lists[key] = k
			idx.head, idx.tail = append(idx.head, -1), append(idx.tail, -1)
		}
		at := int32(len(idx.ents))
		if last := idx.tail[k]; last >= 0 {
			idx.next[last] = at
		} else {
			idx.head[k] = at
		}
		idx.tail[k] = at
		idx.next = append(idx.next, -1)
		idx.ents = append(idx.ents, e)
	}
	if !allNull(cells) {
		idx.deltaN++
	}
}

// compactMinTuples is the smallest index whose delta post folds into the
// frozen part: below it a delta of a few lists costs less to keep than to
// rebuild at every batch, and a session closes hundreds of such components.
const compactMinTuples = 32

// post posts the given store entries, ascending from upTo on, and brings
// upTo to the store's end. They go to the delta while it stays smaller than
// the frozen part or the index below compactMinTuples. The batch that would
// break both — or any batch, when the frozen part is empty — has the frozen
// part built afresh over what the index held and the batch.
func (idx *postingIndex) post(tuples []Tuple, ids []int32) {
	n := idx.deltaN + len(ids) // the delta, were the batch added to it
	idx.upTo = len(tuples)
	if idx.frozenN == 0 || n >= idx.frozenN && idx.frozenN+n >= compactMinTuples {
		idx.build(tuples, append(idx.heldIDs(), ids...))
		return
	}
	for _, id := range ids {
		idx.add(int(id), tuples[id].Cells)
	}
}

// setPivot buckets the index by the given column, rebuilding the frozen
// part over everything the index holds — the delta's entries carry the old
// pivot's symbols, so it is folded in; -1 strips the buckets at once, as
// the frozen lists serve unbucketed probes in any order and an unbucketed
// probe reads no entry's pivot symbol.
func (idx *postingIndex) setPivot(tuples []Tuple, pivot int) {
	idx.pivot = pivot
	if pivot < 0 {
		idx.pivs, idx.buckets = nil, 0
		return
	}
	idx.build(tuples, idx.heldIDs())
}

// rechoosePivot applies the re-pivot rule to a cached index about to be
// extended over tuples: once the store has at least doubled since the pivot
// was chosen (including "no pivot", chosen at whatever size the index was
// built), choose again over the current store; if the choice moved, the
// index is rebuilt bucketed by it (setPivot). One choice per doubling, so
// the cost amortizes to O(1) per stored tuple. noPivot strips the buckets
// and forgets the size, so a later pivoted run chooses afresh.
func (idx *postingIndex) rechoosePivot(opts Options, tuples []Tuple, nCols int) {
	if opts.noPivot {
		if idx.pivot >= 0 {
			idx.setPivot(tuples, -1)
		}
		idx.pivotAt = 0
		return
	}
	if len(tuples) < 2*idx.pivotAt || len(tuples) < pivotMinTuples {
		return
	}
	idx.pivotAt = len(tuples)
	if pivot := choosePivot(tuples, nCols); pivot != idx.pivot {
		idx.setPivot(tuples, pivot)
	}
}

// stampSet deduplicates candidate IDs in O(1) per probe using epoch
// stamping: marks[j] == epoch means j was already seen this round. Growing
// and re-zeroing a map per tuple dominated Full Disjunction runtime on
// low-selectivity columns; the stamp array removes that cost.
type stampSet struct {
	marks []uint32
	epoch uint32
}

// next starts a new deduplication round, growing the mark array to size n.
func (s *stampSet) next(n int) {
	if len(s.marks) < n {
		s.marks = append(s.marks, make([]uint32, n-len(s.marks))...)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: clear and restart
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.epoch = 1
	}
}

func (s *stampSet) seen(j int) bool {
	if s.marks[j] == s.epoch {
		return true
	}
	s.marks[j] = s.epoch
	return false
}

// candidates calls fn for every tuple sharing an equal non-null value with
// cells, deduplicated and excluding self — on a pivoted index, when cells
// holds a pivot value, only for those whose pivot cell is that value or
// null: a tuple holding any other conflicts with cells on the pivot column.
// The frozen lists are scanned before the delta's. The return value is how
// many list entries that pruning passed over (always 0 on an unbucketed
// index or a null-pivot probe).
func (idx *postingIndex) candidates(self int, cells []uint32, seen *stampSet, fn func(j int)) (skipped int) {
	return idx.candidatesBelow(self, math.MaxInt32, cells, seen, fn)
}

// candidatesBelow is candidates over the store IDs below the given bound
// only. A scan stops at the first ID not below it, so the bound holds only
// for lists whose runs and delta chains ascend — those of an index posted
// in ascending ID order, as a session's ingest index is.
func (idx *postingIndex) candidatesBelow(self, below int, cells []uint32, seen *stampSet, fn func(j int)) (skipped int) {
	pivoted := idx.pivot >= 0 && cells[idx.pivot] != intern.Null
	var p uint32
	if pivoted {
		p = cells[idx.pivot]
	}
	scan := func(list []int32) {
		for _, j := range list {
			if int(j) >= below {
				return
			}
			if int(j) != self && !seen.seen(int(j)) {
				fn(int(j))
			}
		}
	}
	for c, sym := range cells {
		if sym == intern.Null {
			continue
		}
		k, ok := idx.lists[listKey(c, sym)]
		if !ok {
			continue
		}
		if int(k) < len(idx.offs)-1 {
			list := idx.ids[idx.offs[k]:idx.offs[k+1]]
			if pivoted {
				pivs := idx.pivs[idx.offs[k]:idx.offs[k+1]]
				same, null := pivotRun(list, pivs, p), pivotRun(list, pivs, intern.Null)
				skipped += len(list) - len(same) - len(null)
				scan(same)
				list = null
			}
			scan(list)
		}
		if idx.head == nil {
			continue
		}
		for at := idx.head[k]; at >= 0; at = idx.next[at] {
			e := idx.ents[at]
			if q := uint32(e >> 32); pivoted && q != p && q != intern.Null {
				skipped++
				continue
			}
			j := int(uint32(e))
			if j >= below {
				break
			}
			if j != self && !seen.seen(j) {
				fn(j)
			}
		}
	}
	return skipped
}

// pivotMinTuples is the smallest seed store a pivoted index is built for;
// below it the per-column statistics cost more than the pruning saves.
const pivotMinTuples = 32

// choosePivot picks the bucketing column for a seed store: the column
// minimizing the expected per-probe scan cost — a probe iterates the
// matching bucket (nonNull/distinct tuples on average) plus the null
// bucket (the column's null count) — or -1 when no column's estimated
// cost beats half of scanning the store, i.e. the schema is uniformly
// unselective and bucketing would only add overhead. Deterministic:
// depends only on the seed tuples' cells, so every run picks
// the same pivot for the same component.
func choosePivot(tuples []Tuple, nCols int) int {
	n := len(tuples)
	if n < pivotMinTuples {
		return -1
	}
	nonNull := make([]int, nCols)
	distinct := make([]int, nCols)
	seen := make(map[uint64]struct{}, n)
	for i := range tuples {
		for c, sym := range tuples[i].Cells {
			if sym == intern.Null {
				continue
			}
			nonNull[c]++
			key := uint64(c)<<32 | uint64(sym)
			if _, ok := seen[key]; !ok {
				seen[key] = struct{}{}
				distinct[c]++
			}
		}
	}
	best, bestCost := -1, 0.0
	for c := 0; c < nCols; c++ {
		if distinct[c] < 2 {
			continue
		}
		cost := float64(n-nonNull[c]) + float64(nonNull[c])/float64(distinct[c])
		if best < 0 || cost < bestCost {
			best, bestCost = c, cost
		}
	}
	if best >= 0 && 2*bestCost >= float64(n) {
		return -1
	}
	return best
}

// pivotFor resolves the pivot column for a closure over the given seed,
// honoring Options.noPivot.
func pivotFor(opts Options, tuples []Tuple, nCols int) int {
	if opts.noPivot {
		return -1
	}
	return choosePivot(tuples, nCols)
}

// The complementation closure rests on three facts, which make its cost
// follow its output instead of every pair of intermediate tuples.
//
// Fact 1 — a tuple meets base tuples only. The closure of a component is
// exactly {merge(S) : S a connected, pairwise-consistent set of base
// (outer-union) tuples}, and a connected set has an ordering whose prefixes
// are all connected, so every closure tuple is reached by adding one base
// tuple at a time: an expansion probes the base postings, and a derived x
// derived pair, which could only re-derive an existing signature, is never
// attempted. The same holds when a cached closure is extended (non-nil
// worklist) although the old tuples are not expanded again. Let T be new;
// some new base n ⊑ T lies below no old closure tuple u ⊑ T — if each did,
// the old bases below T would cover T's cells and stay connected through
// those u, making T old. Order the bases below T from n with connected
// prefixes: every prefix merge lies between n and T, so it is new, so it is
// queued and expanded. Provenance is untouched: prov(t) is the fixpoint
// {b base : b ⊑ t}, and every pair (t, b) with b ⊑ t is attempted — from t's
// expansion when t is new, from b's when b is (unless t is past mattering,
// fact 3).
//
// Fact 2 — maximality is read off the expansion (entryExtended; the proof is
// in subsume.go), so no subsumer search follows the closure.
//
// Fact 3 — derived tuples need no postings in a closure from scratch: by
// fact 1 nothing probes for them, by fact 2 nothing scans them afterwards.
// Only a later extension has a use for them, and only for the ones still
// unextended: a new base tuple must meet those, to extend them or to lend
// them its provenance; an extended derived tuple is never again output,
// expanded or probed for, so it may go stale. So the base postings
// (pivot-bucketed) always exist, and the derived postings are a second index
// a store gets at its first extension, holding the derived tuples each run
// left unextended. An expanded base tuple probes both, an expanded derived
// tuple the base postings only. One-shot integrations never pay for the
// second index.

// Per-entry flags of a closure store (store.flags).
const (
	// entryBase marks an outer-union tuple; unmarked entries were derived.
	entryBase uint8 = 1 << iota
	// entryExtended marks a tuple some successful attempt strictly extended:
	// it is not maximal. Monotone — a store only grows — so it survives
	// extension and absorption (OR-ed where stores are deduplicated).
	entryExtended
)

// store is a closure store: the tuples, one entry flag byte each, and the
// indexes and scratch that cover them. A closure grows it; the incremental
// index caches it with the component (cachedComp) and, when the component
// goes dirty, extends it in place and expands only the new or changed base
// tuples (and what they produce), instead of re-deriving the closure from
// base tuples: by fact 1 every tuple the delta adds is reached from a new
// base tuple through new tuples. A live entry's provenance is the fixpoint
// {b base : b ⊑ entry}, which only grows; a derived entry that has been
// extended is dead weight kept for signature dedup and may lag.
//
// flags are kept from the run that produced the store and carried through
// every seeding rather than rebuilt from Index.pos: entryBase (an
// outer-union tuple — what an expansion probes for, fact 1) and
// entryExtended (some attempt strictly extended the entry, so it is not
// maximal, fact 2; kept is the rest). Both only ever get set: a derived
// entry turns base when an identical row arrives, and a store only grows,
// so an extended entry stays extended.
//
// sigs is the signature index covering tuples, post the postings of the
// base entries, der the postings of the derived entries each run left
// unextended, scr the worklist scratch. der is nil until the store is first
// extended (fact 3: a closure from scratch posts no derived tuple); sigs,
// post and scr are nil after a singleton close or a hub closed by pivot
// groups (closePivotPar). What is missing is built when the store is next
// extended. An extension posts to the postings' delta, which is folded into
// their frozen part as it grows (postingIndex.post); post re-chooses its
// pivot column when the store has doubled (postingIndex.rechoosePivot), and
// der follows. A store a re-closure consumed is the zero store.
type store struct {
	tuples    []Tuple
	flags     []uint8
	sigs      *sigIndex
	post, der *postingIndex
	scr       *closeScratch
}

// closure is the mutable state of one complementation run: the growing
// store plus the (possibly shared) memory budget. A closure covers a single
// connected component (or, inside the pivot-partitioned hub closure, its
// null-pivot tuples). A nil scr allocates one on the first run.
type closure struct {
	eng *engine
	store
	bud *budget
	// ns, set on a pivot group's closure (pivotpar.go), is the closed
	// null-pivot closure the group's tuples also meet, read-only; nsExt[j]
	// records that this worker extended ns.tuples[j].
	ns    *closure
	nsExt []bool
}

// closeScratch is the worklist state of the sequential closure. The
// incremental index caches it with a component's indexes, so extending a
// large cached closure by a few tuples allocates and clears nothing
// proportional to the store.
type closeScratch struct {
	seen  stampSet
	queue []int
	once  pairOnce
}

// pairOnce lets a worklist closure attempt each unordered pair once instead
// of from both ends. at[j] - base is the store length at the start of j's
// expansion in the current run (not expanded if that is not positive):
// every posted tuple below it that j's expansion probes for has been tried
// against j, so a later expansion of such a tuple skips j. Ending a run
// raises base past every entry it wrote, which retires them without a pass
// over the store.
type pairOnce struct {
	at   []uint32
	base uint32
}

// expand notes that tuple i is being expanded against a store of n tuples.
func (p *pairOnce) expand(i, n int) {
	for len(p.at) < n {
		p.at = append(p.at, 0)
	}
	p.at[i] = p.base + uint32(n)
}

// tried reports whether j's expansion already attempted the pair (i, j).
func (p *pairOnce) tried(i, j int) bool { return p.at[j] > p.base+uint32(i) }

// end closes a run over a store that grew to n tuples.
func (p *pairOnce) end(n int) {
	if p.base += uint32(n); p.base > 1<<31 {
		clear(p.at)
		p.base = 0
	}
}

// postFrom brings the index up to date with the store: of the entries from
// upTo on it posts the base tuples (base) or the derived tuples nothing has
// extended (!base), and reports how many.
func (idx *postingIndex) postFrom(tuples []Tuple, flags []uint8, base bool) (posted int) {
	var ids []int32
	for i := idx.upTo; i < len(tuples); i++ {
		if f := flags[i]; base && f&entryBase != 0 || !base && f == 0 {
			ids = append(ids, int32(i))
		}
	}
	idx.post(tuples, ids)
	return len(ids)
}

// newClosure wraps a store of distinct base tuples, hashing them and posting
// them bucketed by pivot (-1 = unbucketed).
func newClosure(eng *engine, tuples []Tuple, bud *budget, pivot int) *closure {
	flags := bytes.Repeat([]byte{entryBase}, len(tuples))
	sigs := newSigIndex(len(tuples))
	for i := range tuples {
		sigs.add(tuples[i].Cells, i)
	}
	return &closure{eng: eng, store: store{tuples: tuples, flags: flags, sigs: sigs, post: indexAll(tuples, pivot)}, bud: bud}
}

// runFrom closes the store under complementation using a worklist. New
// merged tuples are appended and expanded in turn, so merges compose
// transitively until fixpoint. Only the listed store IDs (and tuples
// produced from them, transitively) are expanded; a nil worklist expands
// everything. Pairs among the unlisted tuples are assumed already closed —
// the incremental index seeds a dirty component's store with its previous
// closure and lists only the tuples that arrived or changed since. Which
// postings an expansion probes is fact 1's rule (see above); both sides of
// a successful attempt that is not their own cells are marked entryExtended
// (fact 2). The context is polled every cancelEvery candidate expansions,
// so cancellation interrupts even one giant component.
func (c *closure) runFrom(ctx context.Context, work []int, stats *Stats) error {
	if len(c.tuples) > 0 {
		if err := c.bud.check(); err != nil {
			return err
		}
	}
	if c.scr == nil {
		c.scr = &closeScratch{}
	}
	scr := c.scr
	queue := scr.queue[:0]
	if work == nil {
		for i := range c.tuples {
			queue = append(queue, i)
		}
	} else {
		queue = append(queue, work...)
	}
	var stopErr error
	chk := cancelCheck{ctx: ctx}
	mbuf := make([]uint32, 0, c.eng.nCols)
	skipped := 0

	// i is the tuple being expanded, base whether it is a base tuple: only
	// then can a partner's earlier expansion have attempted the pair already
	// (a derived tuple is not posted while the run lasts). shared is set
	// while the candidates are c.ns's: nothing expands those, and every
	// success extends them (the result carries the group's pivot value).
	var i int
	var base, shared bool
	attempt := func(j int) {
		if stopErr != nil {
			return
		}
		var partner *Tuple
		switch {
		case shared:
			partner = &c.ns.tuples[j]
		case base && scr.once.tried(i, j):
			return
		default:
			partner = &c.tuples[j]
		}
		if stopErr = chk.poll(); stopErr != nil {
			return
		}
		stats.MergeAttempts++
		merged, ok := tryMergeInto(mbuf, c.tuples[i].Cells, partner.Cells)
		if !ok {
			return
		}
		mbuf = merged
		at, hash, exists := c.sigs.find(merged, c.tuples)
		if exists {
			if p := c.tuples[at].Prov; !provContains(p, c.tuples[i].Prov) || !provContains(p, partner.Prov) {
				c.tuples[at].Prov = mergeProv(p, mergeProv(c.tuples[i].Prov, partner.Prov))
			}
		} else {
			stats.Merges++
			at = len(c.tuples)
			c.sigs.addHashed(hash, at)
			c.tuples = append(c.tuples, Tuple{Cells: cloneCells(merged), Prov: mergeProv(c.tuples[i].Prov, partner.Prov)})
			c.flags = append(c.flags, 0)
			queue = append(queue, at)
			stopErr = c.bud.add(1)
		}
		if at != i {
			c.flags[i] |= entryExtended
		}
		if shared {
			c.nsExt[j] = true
		} else if at != j {
			c.flags[j] |= entryExtended
		}
	}

	for len(queue) > 0 && stopErr == nil {
		i = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		base = c.flags[i]&entryBase != 0

		scr.seen.next(len(c.tuples))
		scr.once.expand(i, len(c.tuples))
		cells := c.tuples[i].Cells
		skipped += c.post.candidates(i, cells, &scr.seen, attempt)
		if base && c.der != nil {
			skipped += c.der.candidates(i, cells, &scr.seen, attempt)
		}
		if c.ns != nil {
			shared = true
			scr.seen.next(len(c.ns.tuples)) // a new round, over N*'s IDs
			c.ns.post.candidates(-1, cells, &scr.seen, attempt)
			if base {
				c.ns.der.candidates(-1, cells, &scr.seen, attempt)
			}
			shared = false
		}
	}
	c.post.upTo = len(c.tuples) // a run adds no base tuple
	if c.der != nil && stopErr == nil {
		c.der.postFrom(c.tuples, c.flags, false) // what this run left unextended
	}
	scr.queue = queue[:0]
	scr.once.end(len(c.tuples))
	stats.PivotSkipped += skipped
	return stopErr
}
