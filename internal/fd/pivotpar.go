package fd

import (
	"context"
	"sync"
	"sync/atomic"

	"fuzzyfd/internal/intern"
)

// Pivot-partitioned hub closure: the one parallel decomposition of the
// worklist closure (closure.runFrom), the same loop run once per
// pivot-value group.
//
// A merge's output inherits any non-null pivot of its inputs, and two
// tuples with different non-null pivot values never merge. The closure of a
// component with pivot column P therefore decomposes exactly:
//
//   - N*, the closure of the null-pivot seeds among themselves: every
//     null-pivot closure tuple derives from null-pivot tuples only (a merge
//     involving a pivoted tuple is pivoted), so N* is computed once,
//     sequentially, and is immutable afterwards.
//   - For each pivot value p, the closure of seeds(p) ∪ N* with only the
//     p-group expanded: every closure tuple with pivot p derives from
//     tuples with pivot p or null, and every production of the group run
//     has pivot p — groups never interact. Pairs (p-tuple, null-tuple) are
//     attempted exactly once, from the p side; pairs across groups are
//     inconsistent on P and are never enumerated at all.
//
// Each group is closed by plain sequential code over group-local maps plus
// read-only probes of one shared N* index — no locks, no atomics (bar one
// group-counter increment per group and the shared tuple budget), no
// cross-worker duplicate probes, and caches that fit a few hundred tuples
// instead of the whole closure. Workers pick groups off an atomic counter;
// the result, and the merge-attempt count, are the same for any worker
// count or schedule.
//
// The decomposition needs every seed expanded, so it serves closures from
// scratch only (nil worklist), and it needs a pivot. Extending a cached
// closure — where unexpanded cached tuples would miss their pairs with new
// null-pivot tuples — and closing a pivotless component are closeOne's, at
// any Workers setting (see closeEach).

// pivotGroups partitions seed indices by their pivot-column symbol:
// null-pivot seeds first, then one group per distinct pivot value in
// first-seen order (deterministic).
func pivotGroups(seed []Tuple, pivot int) (nulls []int, groups [][]int) {
	gid := make(map[uint32]int)
	for i := range seed {
		p := seed[i].Cells[pivot]
		if p == intern.Null {
			nulls = append(nulls, i)
			continue
		}
		g, ok := gid[p]
		if !ok {
			g = len(groups)
			gid[p] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return nulls, groups
}

// pgScratch is one worker's reusable scratch state across groups.
type pgScratch struct {
	seen       stampSet // dedup over the group-local store
	sharedSeen stampSet // dedup over the shared N* store
	once       pairOnce // group-local pairs, each attempted once
	chk        cancelCheck
	mbuf       []uint32
	queue      []int
	stats      Stats
}

// closeGroup closes one pivot group: the listed seeds expanded against the
// group-local store and the shared (read-only) null-pivot closure. Returns
// the group's full local store — seeds first, productions appended.
func closeGroup(eng *engine, seed []Tuple, g []int, nstar []Tuple, master *postingIndex, bud *budget, w *pgScratch) ([]Tuple, error) {
	tuples := make([]Tuple, len(g))
	for k, si := range g {
		tuples[k] = seed[si]
	}
	sigs := newSigIndex()
	idx := newPostingIndex(eng.nCols)
	for i := range tuples {
		sigs.add(tuples[i].Cells, i)
		idx.add(i, tuples[i].Cells)
	}
	queue := w.queue[:0]
	for i := range tuples {
		queue = append(queue, i)
	}
	var stopErr error
	var newIDs []int
	for len(queue) > 0 && stopErr == nil {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		cells := tuples[i].Cells

		// attempt merges tuple i with one candidate partner (group-local or
		// from N*); productions always carry pivot p, so they join the group
		// store and never collide with N* or other groups.
		attempt := func(partner *Tuple) {
			if stopErr != nil {
				return
			}
			if stopErr = w.chk.poll(); stopErr != nil {
				return
			}
			w.stats.MergeAttempts++
			merged, ok := tryMergeInto(w.mbuf, cells, partner.Cells)
			if !ok {
				return
			}
			w.mbuf = merged
			at, hash, exists := sigs.find(merged, tuples)
			if exists {
				if p := tuples[at].Prov; !provContains(p, tuples[i].Prov) || !provContains(p, partner.Prov) {
					tuples[at].Prov = mergeProv(p, mergeProv(tuples[i].Prov, partner.Prov))
				}
				return
			}
			w.stats.Merges++
			id := len(tuples)
			sigs.addHashed(hash, id)
			tuples = append(tuples, Tuple{Cells: cloneCells(merged), Prov: mergeProv(tuples[i].Prov, partner.Prov)})
			newIDs = append(newIDs, id)
			stopErr = bud.add(1)
		}

		newIDs = newIDs[:0]
		w.seen.next(len(tuples))
		w.once.expand(i, len(tuples))
		idx.candidates(i, cells, &w.seen, func(j int) {
			if !w.once.tried(i, j) {
				attempt(&tuples[j])
			}
		})
		if len(nstar) > 0 {
			w.sharedSeen.next(len(nstar))
			master.candidates(-1, cells, &w.sharedSeen, func(j int) { attempt(&nstar[j]) })
		}
		for _, id := range newIDs {
			idx.add(id, tuples[id].Cells)
			queue = append(queue, id)
		}
	}
	w.queue = queue[:0]
	w.once.end(len(tuples))
	return tuples, stopErr
}

// closePivotPar closes a whole component from scratch by pivot
// partitioning: the null-pivot seeds close sequentially into N*, then each
// pivot-value group closes independently across workers. The returned
// store is the seeds at their seed positions, then N*'s derived tuples and
// each group's in first-seen pivot order — deterministic for any worker
// count.
func closePivotPar(ctx context.Context, eng *engine, seed []Tuple, pivot, workers int, bud *budget, stats *Stats) ([]Tuple, error) {
	stats.PivotColumn = pivot
	nulls, groups := pivotGroups(seed, pivot)
	stats.PivotGroups = len(groups)

	// Phase A: close the null-pivot seeds among themselves. The resulting
	// store and its flat posting index are immutable from here on and shared
	// read-only by every group.
	nstar := make([]Tuple, len(nulls))
	for k, si := range nulls {
		nstar[k] = seed[si]
	}
	nsigs := newSigIndex()
	for i := range nstar {
		nsigs.add(nstar[i].Cells, i)
	}
	ncl := newClosure(eng, nstar, nsigs, bud, -1)
	if err := ncl.run(ctx, stats); err != nil {
		return nil, err
	}
	nstar, master := ncl.tuples, ncl.idx

	// Phase B: close each pivot group independently. Workers draw group
	// indices from an atomic counter; each group's result lands in its own
	// slot, so assembly order is schedule-independent.
	w := workers
	if w > len(groups) {
		w = len(groups)
	}
	if w < 1 {
		w = 1
	}
	results := make([][]Tuple, len(groups))
	errs := make([]error, w)
	scratches := make([]pgScratch, w)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			sc := &scratches[wi]
			sc.chk = cancelCheck{ctx: ctx}
			sc.mbuf = make([]uint32, 0, eng.nCols)
			for !stop.Load() {
				gi := int(next.Add(1)) - 1
				if gi >= len(groups) {
					return
				}
				out, err := closeGroup(eng, seed, groups[gi], nstar, master, bud, sc)
				if err != nil {
					errs[wi] = err
					stop.Store(true)
					return
				}
				results[gi] = out
			}
		}(wi)
	}
	wg.Wait()
	for wi := range scratches {
		stats.mergeWork(scratches[wi].stats)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, Canceled(err)
	}

	// Seeds keep their seed positions (the incremental index locates base
	// tuples in a cached store by position); derived tuples follow, N*'s
	// first, then each group's.
	closed := make([]Tuple, len(seed), len(seed)+len(nstar)-len(nulls))
	for k, si := range nulls {
		closed[si] = nstar[k]
	}
	closed = append(closed, nstar[len(nulls):]...)
	for gi, out := range results {
		for k, si := range groups[gi] {
			closed[si] = out[k]
		}
		closed = append(closed, out[len(groups[gi]):]...)
	}
	return closed, nil
}
