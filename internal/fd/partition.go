package fd

import (
	"context"

	"fuzzyfd/internal/intern"
)

// Connected components of the outer union, over the MERGEABLE pair graph:
// tuples a and b are adjacent iff they are consistent (no column holds two
// different non-null values) and connected (they share an equal non-null
// value) — exactly the pairs complementation can merge. This graph confines
// every interaction of the closure:
//
//   - Merges never leave a component. If a closure tuple c (c = join of
//     base tuples of component D) merges with m (join of base tuples of
//     component C), c shares a value v with m; v originates from bases
//     x ∈ D and a ∈ C, and c ⊇ x consistent with m ⊇ a makes x and a
//     consistent — so (x, a) is a mergeable pair and C = D. By induction
//     over the merge order, the closure decomposes per component.
//   - Subsumption never leaves a component: a subsumer agrees on every
//     non-null cell of the subsumed tuple and the subsumed tuple has at
//     least one (all-null tuples are singleton components, folded globally
//     by the assembly, Index.assembleRows), so the two are a mergeable pair.
//   - Signature dedup never needs to look across components: if closures
//     of two components could produce identical cells X, then each
//     non-null column of X would be witnessed by a base tuple on both
//     sides; the two witnesses of one column share that value and agree
//     with X wherever non-null, making them a mergeable pair across the
//     components — a contradiction.
//
// The weaker shares-a-value relation would also be sound but collapses on
// data-lake inputs: one low-selectivity column (a year, a genre) chains
// every tuple into a single giant component even though almost no pairs
// can actually merge. The mergeable relation keeps components aligned with
// the real join structure.
//
// Index.ingest maintains the components as tuples arrive: adjacent tuples
// share a value, so a new tuple finds every neighbor in its posting lists,
// joins the component of a consistent one and merges the components of
// several. Edges only ever appear, so components merge but never split.

// consistentCells reports whether two tuples agree on every column where
// both are non-null. Tuples drawn from the same posting list already share
// an equal non-null value, so for them consistency alone decides
// mergeability.
func consistentCells(a, b []uint32) bool {
	for i := range a {
		if a[i] != intern.Null && b[i] != intern.Null && a[i] != b[i] {
			return false
		}
	}
	return true
}

// closeOne closes one dirty component in its cached record (Index.seed) —
// the complementation closure, whose unextended entries are the maximal
// tuples — against the shared budget, polling ctx inside the closure. It
// extends the record's store in place, leaves the closure store and its
// size in rec, and returns the kept tuples and the closure's work counters.
// A record without flags holds base tuples to close from scratch (work is
// nil). With Workers > 1 such a hub — at least hubMinTuples tuples and a
// pivot column — is closed by closePivotPar, one pivot-value group at a time
// with every worker inside it; its store comes back without indexes or
// scratch, and its first extension builds them. Every other record, at any
// Workers setting — every cached closure being extended, every component
// without a pivot — is closed by the sequential worklist, in place.
func (e *engine) closeOne(ctx context.Context, rec *cachedComp, work []int, opts Options, bud *budget) ([]Tuple, Stats, error) {
	tuples := rec.tuples
	st := Stats{PivotColumn: -1}
	if len(tuples) == 1 {
		// A singleton component is its own closure and its own maximal
		// tuple; skip the index setup entirely (data-lake inputs produce
		// thousands of these).
		if err := bud.check(); err != nil {
			return nil, st, err
		}
		rec.store, rec.closure = store{tuples: tuples, flags: []uint8{entryBase}}, 1
		return tuples, st, nil
	}
	var cl *closure
	if rec.flags == nil {
		pivot := pivotFor(opts, tuples, e.nCols)
		if opts.Workers > 1 && len(tuples) >= hubMinTuples && pivot >= 0 {
			closed, flags, err := closePivotPar(ctx, e, tuples, pivot, opts.Workers, bud, &st)
			if err != nil {
				return nil, st, err
			}
			rec.store, rec.closure = store{tuples: closed, flags: flags}, len(closed)
			return keptOf(closed, flags), st, nil
		}
		cl = newClosure(e, tuples, bud, pivot)
	} else {
		// A cached store keeps its base postings' pivot until the store has
		// doubled since it was chosen (postingIndex.rechoosePivot); a pivot
		// chosen anew that moved rebuilds them, and noPivot strips the
		// buckets. The derived postings, made at the store's first extension
		// (fact 3 of complement.go), follow that pivot. Both then take in
		// what the seeding appended: the delta's base tuples, and the
		// unextended derived tuples of absorbed stores.
		cl = &closure{eng: e, store: rec.store, bud: bud}
		if cl.post == nil {
			cl.post = newPostingIndex(pivotFor(opts, tuples, e.nCols))
			cl.post.pivotAt = len(tuples)
		} else {
			cl.post.rechoosePivot(opts, tuples, e.nCols)
		}
		if cl.der == nil {
			cl.der = newPostingIndex(cl.post.pivot)
		} else if cl.der.pivot != cl.post.pivot {
			cl.der.setPivot(tuples, cl.post.pivot)
		}
		st.SeedIndexedTuples = cl.post.postFrom(tuples, cl.flags, true) + cl.der.postFrom(tuples, cl.flags, false)
	}
	st.PivotColumn = cl.post.pivot
	if err := cl.runFrom(ctx, work, &st); err != nil {
		return nil, st, err
	}
	st.PivotBuckets = cl.post.buckets
	if cl.der != nil {
		st.PivotBuckets += cl.der.buckets
	}
	rec.store, rec.closure = cl.store, len(cl.tuples)
	return keptOf(cl.tuples, cl.flags), st, nil
}

// hubMinTuples is the least size at which a component closing from scratch
// is closed by its pivot groups when Workers > 1; below it the per-worker
// setup outweighs the closure.
const hubMinTuples = 512
