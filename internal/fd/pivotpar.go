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
// read-only probes of N*'s two posting indexes — no locks, no atomics (bar
// one group-counter increment per group and the shared memory budget), no
// cross-worker duplicate probes, and caches that fit a few hundred tuples
// instead of the whole closure. Workers pick groups off an atomic counter;
// the result, and the merge-attempt count, are the same for any worker
// count or schedule.
//
// The three facts of the closure (complement.go) hold per group. A pair is
// attempted iff one side is base: an expanded group seed probes the group's
// seeds, N*'s base tuples and the derived tuples N*'s own closure left
// unextended; an expanded derived tuple the group's seeds and N*'s base
// tuples; a group's derived tuples are never posted. N*'s unextended derived
// tuples are — once, when N* has closed — because nothing expands N* against
// the groups: the pair (group seed, N* derived tuple) is attempted from the
// seed's side only, and that attempt is what tells whether the N* tuple is
// maximal. Every success against an N* tuple extends it (the result carries
// a pivot value, the N* tuple none); N* being shared, each worker marks it
// in a bitmap of its own, OR-ed into N*'s flags when the workers are done.
//
// The decomposition needs every seed expanded, so it serves closures from
// scratch only (nil worklist), and it needs a pivot. Extending a cached
// closure — where unexpanded cached tuples would miss their pairs with new
// null-pivot tuples — and closing a pivotless component are left to the
// sequential worklist at any Workers setting (closeOne).

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

// closeGroup closes one pivot group: the listed seeds expanded against the
// group-local store and the shared (read-only) null-pivot closure ns, whose
// tuples it extends it notes in ext. Productions always carry the group's
// pivot value, so they join the group store and never collide with N* or
// other groups. Returns the group's full local store — seeds first,
// productions appended — and its entry flags.
func closeGroup(ctx context.Context, eng *engine, seed []Tuple, g []int, ns *closure, ext []bool, bud *budget, scr *closeScratch, stats *Stats) ([]Tuple, []uint8, error) {
	tuples := make([]Tuple, len(g))
	for k, si := range g {
		tuples[k] = seed[si]
	}
	cl := newClosure(eng, tuples, bud, -1)
	cl.scr, cl.ns, cl.nsExt = scr, ns, ext
	err := cl.runFrom(ctx, nil, stats)
	return cl.tuples, cl.flags, err
}

// closePivotPar closes a whole component from scratch by pivot
// partitioning: the null-pivot seeds close sequentially into N*, then each
// pivot-value group closes independently across workers. The returned
// store is the seeds at their seed positions, then N*'s derived tuples and
// each group's in first-seen pivot order — deterministic for any worker
// count — with the entry flags in the same order.
func closePivotPar(ctx context.Context, eng *engine, seed []Tuple, pivot, workers int, bud *budget, stats *Stats) ([]Tuple, []uint8, error) {
	stats.PivotColumn = pivot
	nulls, groups := pivotGroups(seed, pivot)
	stats.PivotGroups = len(groups)

	// Phase A: close the null-pivot seeds among themselves, then post the
	// derived tuples. The resulting store and its flat posting indexes are
	// immutable from here on and shared read-only by every group.
	nstar := make([]Tuple, len(nulls))
	for k, si := range nulls {
		nstar[k] = seed[si]
	}
	ns := newClosure(eng, nstar, bud, -1)
	if err := ns.runFrom(ctx, nil, stats); err != nil {
		return nil, nil, err
	}
	nstar, nflags := ns.tuples, ns.flags
	ns.der = newPostingIndex(-1)
	ns.der.postFrom(nstar, nflags, false)

	// Phase B: close each pivot group independently. Workers draw group
	// indices from an atomic counter; each group's result lands in its own
	// slot, so assembly order is schedule-independent.
	w := max(1, min(workers, len(groups)))
	stores := make([][]Tuple, len(groups))
	sflags := make([][]uint8, len(groups))
	errs := make([]error, w)
	worked := make([]Stats, w) // per worker: merge work counters
	exts := make([][]bool, w)  // per worker: N* tuples its groups extended
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			scr := &closeScratch{}
			exts[wi] = make([]bool, len(nstar))
			for !stop.Load() {
				gi := int(next.Add(1)) - 1
				if gi >= len(groups) {
					return
				}
				var err error
				stores[gi], sflags[gi], err = closeGroup(ctx, eng, seed, groups[gi], ns, exts[wi], bud, scr, &worked[wi])
				if err != nil {
					errs[wi] = err
					stop.Store(true)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	for wi := range worked {
		stats.mergeWork(worked[wi])
		for j, ext := range exts[wi] {
			if ext {
				nflags[j] |= entryExtended
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, Canceled(err)
	}

	// Seeds keep their seed positions (the incremental index locates base
	// tuples in a cached store by position); derived tuples follow, N*'s
	// first, then each group's.
	n := len(seed) + len(nstar) - len(nulls)
	for gi, g := range groups {
		n += len(stores[gi]) - len(g)
	}
	closed := make([]Tuple, len(seed), n)
	flags := make([]uint8, len(seed), n)
	for k, si := range nulls {
		closed[si], flags[si] = nstar[k], nflags[k]
	}
	closed = append(closed, nstar[len(nulls):]...)
	flags = append(flags, nflags[len(nulls):]...)
	for gi, g := range groups {
		for k, si := range g {
			closed[si], flags[si] = stores[gi][k], sflags[gi][k]
		}
		closed = append(closed, stores[gi][len(g):]...)
		flags = append(flags, sflags[gi][len(g):]...)
	}
	return closed, flags, nil
}
