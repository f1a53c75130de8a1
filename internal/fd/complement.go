package fd

import (
	"bytes"
	"context"

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
// With pivot >= 0 the index is additionally pivot-bucketed: every posting
// list is sub-bucketed by each tuple's value in the pivot column (the
// component's most selective column, see choosePivot), plus a null-pivot
// bucket. Two tuples holding different non-null pivot values are
// inconsistent on that column, so a probe for a tuple with pivot value p
// only iterates the p-bucket and the null bucket of each of its posting
// lists — candidates that conflict on the pivot are skipped without being
// iterated. The flat lists are kept alongside the buckets: null-pivot
// probes and ingest read them unchanged.
type postingIndex struct {
	byCol []map[uint32][]int
	// pivot is the output column the lists are sub-bucketed by, or -1 for
	// an unbucketed index. byPivot[c][pivotKey(sym, p)] holds the tuples of
	// byCol[c][sym] whose pivot cell is p.
	pivot   int
	byPivot []map[uint64][]int
	// pivotAt is the store size the pivot was chosen at. A cached index
	// outlives the seed it was bucketed for — a component first indexed
	// below pivotMinTuples would stay unbucketed for life — so once the
	// store has doubled the pivot is chosen again (see rechoosePivot).
	pivotAt int
	buckets int // (list, pivot-value) buckets in byPivot
	// upTo is the store length the index is up to date for: entries below it
	// have been posted if they qualified then (see postFrom).
	upTo int
}

// newPostingIndex returns an empty unbucketed index. A column's map is made
// when its first value is posted: most components touch a few columns of a
// wide schema, and a cached one carries two indexes.
func newPostingIndex(nCols int) *postingIndex {
	return &postingIndex{byCol: make([]map[uint32][]int, nCols), pivot: -1}
}

// newPivotIndex returns a posting index bucketed by the given pivot column
// (-1 yields a plain unbucketed index).
func newPivotIndex(nCols, pivot int) *postingIndex {
	idx := newPostingIndex(nCols)
	if pivot >= 0 {
		idx.pivot = pivot
		idx.byPivot = make([]map[uint64][]int, nCols)
	}
	return idx
}

// pivotKey packs a posting list's value symbol and a pivot-column symbol
// into one bucket key.
func pivotKey(sym, p uint32) uint64 { return uint64(sym)<<32 | uint64(p) }

func (idx *postingIndex) add(tupleID int, cells []uint32) {
	for c, sym := range cells {
		if sym == intern.Null {
			continue
		}
		if idx.byCol[c] == nil {
			idx.byCol[c] = make(map[uint32][]int)
		}
		idx.byCol[c][sym] = append(idx.byCol[c][sym], tupleID)
		if idx.pivot >= 0 {
			if idx.byPivot[c] == nil {
				idx.byPivot[c] = make(map[uint64][]int)
			}
			key := pivotKey(sym, cells[idx.pivot])
			l, ok := idx.byPivot[c][key]
			if !ok {
				idx.buckets++
			}
			idx.byPivot[c][key] = append(l, tupleID)
		}
	}
}

// widen gives the index room for output columns appended by a schema
// widening; existing lists are untouched.
func (idx *postingIndex) widen(nCols int) {
	for len(idx.byCol) < nCols {
		idx.byCol = append(idx.byCol, nil)
		if idx.pivot >= 0 {
			idx.byPivot = append(idx.byPivot, nil)
		}
	}
}

// setPivot re-buckets the index by the given column (-1 strips the
// buckets) from the flat lists, which stay valid as they are.
func (idx *postingIndex) setPivot(tuples []Tuple, pivot int) {
	idx.pivot, idx.byPivot, idx.buckets = pivot, nil, 0
	if pivot < 0 {
		return
	}
	idx.byPivot = make([]map[uint64][]int, len(idx.byCol))
	for c, col := range idx.byCol {
		if len(col) == 0 {
			continue
		}
		m := make(map[uint64][]int, len(col))
		for sym, list := range col {
			for _, id := range list {
				key := pivotKey(sym, tuples[id].Cells[pivot])
				m[key] = append(m[key], id)
			}
		}
		idx.byPivot[c] = m
		idx.buckets += len(m)
	}
}

// rechoosePivot applies the re-pivot rule to a cached index about to be
// extended over tuples: once the store has at least doubled since the pivot
// was chosen (including "no pivot", chosen at whatever size the index was
// built), choose again over the current store and re-bucket if the choice
// moved. One rebuild per doubling, so the cost amortizes to O(1) per stored
// tuple. NoPivot strips the buckets and forgets the size, so a later
// pivoted run chooses afresh.
func (idx *postingIndex) rechoosePivot(opts Options, tuples []Tuple, nCols int) {
	if opts.NoPivot {
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

// probe calls visit with every posting list a probe for cells has to scan:
// the lists of its non-null values, or on a pivoted index, when cells holds
// a pivot value, only those lists' matching-pivot and null-pivot buckets —
// a tuple in any other bucket conflicts with cells on the pivot column. The
// return value is how many list entries that pruning left out (always 0 on
// an unbucketed index or a null-pivot probe).
func (idx *postingIndex) probe(cells []uint32, visit func(list []int)) (skipped int) {
	pivoted := idx.pivot >= 0 && cells[idx.pivot] != intern.Null
	for c, sym := range cells {
		switch {
		case sym == intern.Null:
		case pivoted:
			same := idx.byPivot[c][pivotKey(sym, cells[idx.pivot])]
			null := idx.byPivot[c][pivotKey(sym, intern.Null)]
			skipped += len(idx.byCol[c][sym]) - len(same) - len(null)
			visit(same)
			visit(null)
		default:
			visit(idx.byCol[c][sym])
		}
	}
	return skipped
}

// candidates calls fn for every tuple sharing an equal non-null value with
// cells that could be consistent with it (see probe), deduplicated,
// excluding self, and returns the candidate iterations pivot bucketing
// skipped.
func (idx *postingIndex) candidates(self int, cells []uint32, seen *stampSet, fn func(j int)) (skipped int) {
	return idx.probe(cells, func(list []int) {
		for _, j := range list {
			if j == self || seen.seen(j) {
				continue
			}
			fn(j)
		}
	})
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
// honoring the NoPivot ablation.
func pivotFor(opts Options, tuples []Tuple, nCols int) int {
	if opts.NoPivot {
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

// Per-entry flags of a closure store, cached with it (cachedComp.flags).
const (
	// entryBase marks an outer-union tuple; unmarked entries were derived.
	entryBase uint8 = 1 << iota
	// entryExtended marks a tuple some successful attempt strictly extended:
	// it is not maximal. Monotone — a store only grows — so it survives
	// extension and absorption (OR-ed where stores are deduplicated).
	entryExtended
)

// closure is the mutable state of one complementation run: the growing
// tuple store with its flags, signature index and postings, plus the
// (possibly shared) tuple budget. A closure covers a single connected
// component (or, inside the pivot-partitioned hub closure, its null-pivot
// tuples).
type closure struct {
	eng    *engine
	tuples []Tuple
	flags  []uint8 // entryBase, entryExtended per store entry
	sigs   *sigIndex
	idx    *postingIndex // postings of the base tuples
	der    *postingIndex // postings of unextended derived tuples; nil on a store never extended
	bud    *budget
	scr    *closeScratch // nil allocates one on first run
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
	for i := idx.upTo; i < len(tuples); i++ {
		if f := flags[i]; base && f&entryBase != 0 || !base && f == 0 {
			idx.add(i, tuples[i].Cells)
			posted++
		}
	}
	idx.upTo = len(tuples)
	return posted
}

// newClosure wraps a store of distinct base tuples, hashing them and posting
// them bucketed by pivot (-1 = unbucketed).
func newClosure(eng *engine, tuples []Tuple, bud *budget, pivot int) *closure {
	flags := bytes.Repeat([]byte{entryBase}, len(tuples))
	sigs := newSigIndex()
	for i := range tuples {
		sigs.add(tuples[i].Cells, i)
	}
	idx := newPivotIndex(eng.nCols, pivot)
	idx.postFrom(tuples, flags, true)
	idx.pivotAt = len(tuples)
	return &closure{eng: eng, tuples: tuples, flags: flags, sigs: sigs, idx: idx, bud: bud}
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
		skipped += c.idx.candidates(i, cells, &scr.seen, attempt)
		if base && c.der != nil {
			skipped += c.der.candidates(i, cells, &scr.seen, attempt)
		}
		if c.ns != nil {
			shared = true
			scr.seen.next(len(c.ns.tuples)) // a new round, over N*'s IDs
			c.ns.idx.candidates(-1, cells, &scr.seen, attempt)
			if base {
				c.ns.der.candidates(-1, cells, &scr.seen, attempt)
			}
			shared = false
		}
	}
	c.idx.upTo = len(c.tuples) // a run adds no base tuple
	if c.der != nil && stopErr == nil {
		c.der.postFrom(c.tuples, c.flags, false) // what this run left unextended
	}
	scr.queue = queue[:0]
	scr.once.end(len(c.tuples))
	stats.PivotSkipped += skipped
	return stopErr
}
