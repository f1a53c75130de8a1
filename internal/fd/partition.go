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

// closeJob describes one component closure, built by Index.seed: the seed
// store and the worklist of store IDs whose candidate pairs have not been
// examined yet. A component without a cached closure is the trivial job —
// seed = its base tuples, nil worklist (expand everything); otherwise the
// seed is a cached closure extended in place and the worklist lists only
// the new or changed tuples. The seed slices are the job's own: the closure
// grows and mutates them in place. Seed tuples stay at their seed positions
// in the store a closure returns.
type closeJob struct {
	// store is the seed. Its flags are nil on a seed of base tuples to close
	// from scratch; a job with flags extends a cached store and brings its
	// signature index, and any postings and scratch it has, which the
	// closure brings up to date instead of re-indexing the store.
	store
	base int   // count of outer-union (base) tuples in the seed
	work []int // store IDs to expand; nil closes from scratch
}

// compResult is the outcome of closing one component.
type compResult struct {
	kept []Tuple
	// store is the full closure store. The incremental index caches it to
	// seed future re-closures of the component.
	store
	stats   Stats
	closure int
}

// newJobClosure wraps a job's seed store in a closure and reports how many
// tuples it posted to bring a cached store's postings up to date. A seed of
// base tuples (from scratch: no flags) is posted bucketed by pivot, the
// column closeOne chose over it (-1: unbucketed). A cached store being
// extended keeps its base postings' pivot until the store has doubled since
// it was chosen (postingIndex.rechoosePivot); a pivot chosen anew that
// moved rebuilds them. noPivot strips the buckets; the frozen lists serve unbucketed probes
// as they are. The derived postings, made at the store's first extension
// (fact 3 of complement.go), follow that pivot. Both then take in what the
// seeding appended: the delta's base tuples, and the unextended derived
// tuples of absorbed stores.
func newJobClosure(e *engine, job closeJob, pivot int, opts Options, bud *budget) (cl *closure, posted int) {
	tuples := job.tuples
	if job.flags == nil {
		return newClosure(e, tuples, bud, pivot), 0
	}
	cl = &closure{eng: e, store: job.store, bud: bud}
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
	return cl, cl.post.postFrom(tuples, cl.flags, true) + cl.der.postFrom(tuples, cl.flags, false)
}

// closeOne closes one component job — the complementation closure, whose
// unextended entries are the maximal tuples — against the shared budget,
// polling ctx inside the closure. With Workers > 1 a hub — a component
// closing from scratch with at least hubMinTuples tuples and a pivot column
// — is closed by closePivotPar, one pivot-value group at a time with every
// worker inside it; its store comes back without indexes or scratch, and its
// first extension builds them. Every other job, at any Workers setting —
// every cached closure being extended, every component without a pivot — is
// closed by the sequential worklist, in place.
func (e *engine) closeOne(ctx context.Context, job closeJob, opts Options, bud *budget) (compResult, error) {
	if len(job.tuples) == 1 {
		// A singleton component is its own closure and its own maximal
		// tuple; skip the index setup entirely (data-lake inputs produce
		// thousands of these).
		if err := bud.check(); err != nil {
			return compResult{}, err
		}
		return compResult{kept: job.tuples, store: store{tuples: job.tuples, flags: []uint8{entryBase}}, stats: Stats{PivotColumn: -1}, closure: 1}, nil
	}
	pivot := -1
	if job.flags == nil {
		pivot = pivotFor(opts, job.tuples, e.nCols)
		if opts.Workers > 1 && len(job.tuples) >= hubMinTuples && pivot >= 0 {
			var st Stats
			closed, flags, err := closePivotPar(ctx, e, job.tuples, pivot, opts.Workers, bud, &st)
			if err != nil {
				return compResult{}, err
			}
			return compResult{kept: keptOf(closed, flags), store: store{tuples: closed, flags: flags}, stats: st, closure: len(closed)}, nil
		}
	}
	cl, posted := newJobClosure(e, job, pivot, opts, bud)
	st := Stats{PivotColumn: cl.post.pivot, SeedIndexedTuples: posted}
	if err := cl.runFrom(ctx, job.work, &st); err != nil {
		return compResult{}, err
	}
	st.PivotBuckets = cl.post.buckets
	if cl.der != nil {
		st.PivotBuckets += cl.der.buckets
	}
	return compResult{kept: keptOf(cl.tuples, cl.flags), store: cl.store, stats: st, closure: len(cl.tuples)}, nil
}

// hubMinTuples is the least size at which a component closing from scratch
// is closed by its pivot groups when Workers > 1; below it the per-worker
// setup outweighs the closure.
const hubMinTuples = 512

// closeSet closes the listed component jobs one after another, in order,
// and returns one compResult per job; merge work counters land in stats.
// Each completion reaches hook first — the index puts the component's kept
// tuples in value order and decodes them there — and then opts.Progress.
// The context is checked at every component boundary (and inside
// components by the closures); the first component error or cancellation
// is returned.
func (e *engine) closeSet(ctx context.Context, jobs []closeJob, opts Options, bud *budget, stats *Stats, hook func(ci int, r compResult)) ([]compResult, error) {
	results := make([]compResult, len(jobs))
	for ci := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, Canceled(err)
		}
		r, err := e.closeOne(ctx, jobs[ci], opts, bud)
		if err != nil {
			return nil, err
		}
		results[ci] = r
		stats.mergeWork(r.stats)
		hook(ci, r)
		if opts.Progress != nil {
			opts.Progress(ComponentProgress{
				Done: ci + 1, Total: len(jobs), Members: jobs[ci].base, Closure: r.closure,
				PivotColumn: r.stats.PivotColumn, PivotSkipped: r.stats.PivotSkipped,
			})
		}
	}
	return results, nil
}
