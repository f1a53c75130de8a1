package fd

import (
	"context"
	"sort"
	"sync"

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
	// pivoted says closeEach already chose the pivot column while applying
	// its hub rule to this from-scratch job: a column makes the job a hub,
	// closed by that column's groups with every worker inside it
	// (closePivotPar); -1 leaves it to the sequential closure, unbucketed,
	// which does not choose again.
	pivoted bool
	pivot   int
}

// compResult is the outcome of closing one component.
type compResult struct {
	kept []Tuple
	// store is the full closure store. The incremental index caches it to
	// seed future re-closures of the component.
	store
	stats   Stats
	closure int
	err     error
}

// newJobClosure wraps a job's seed store in a closure and reports how many
// tuples it posted to bring a cached store's postings up to date. A seed of
// base tuples (from scratch: no flags) is posted bucketed by the pivot
// column chosen over it. A cached store being extended keeps its base
// postings' pivot until the store has doubled since it was chosen
// (postingIndex.rechoosePivot); a pivot chosen anew that moved rebuilds
// them. noPivot strips the buckets; the frozen lists serve unbucketed probes
// as they are. The derived postings, made at the store's first extension
// (fact 3 of complement.go), follow that pivot. Both then take in what the
// seeding appended: the delta's base tuples, and the unextended derived
// tuples of absorbed stores.
func newJobClosure(e *engine, job closeJob, opts Options, bud *budget) (cl *closure, posted int) {
	tuples := job.tuples
	if job.flags == nil {
		pivot := job.pivot
		if !job.pivoted {
			pivot = pivotFor(opts, tuples, e.nCols)
		}
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
// polling ctx inside the closure. A job closeEach found to be a hub is
// closed by closePivotPar with every worker inside it; its store comes back
// without indexes or scratch, and its first extension builds them.
func (e *engine) closeOne(ctx context.Context, job closeJob, opts Options, bud *budget) compResult {
	if job.pivoted && job.pivot >= 0 {
		var st Stats
		closed, flags, err := closePivotPar(ctx, e, job.tuples, job.pivot, opts.Workers, bud, &st)
		if err != nil {
			return compResult{err: err}
		}
		return compResult{kept: keptOf(closed, flags), store: store{tuples: closed, flags: flags}, stats: st, closure: len(closed)}
	}
	if len(job.tuples) == 1 {
		// A singleton component is its own closure and its own maximal
		// tuple; skip the index setup entirely (data-lake inputs produce
		// thousands of these).
		if err := bud.check(); err != nil {
			return compResult{err: err}
		}
		return compResult{kept: job.tuples, store: store{tuples: job.tuples, flags: []uint8{entryBase}}, stats: Stats{PivotColumn: -1}, closure: 1}
	}
	cl, posted := newJobClosure(e, job, opts, bud)
	st := Stats{PivotColumn: cl.post.pivot, SeedIndexedTuples: posted}
	if err := cl.runFrom(ctx, job.work, &st); err != nil {
		return compResult{err: err}
	}
	st.PivotBuckets = cl.post.buckets
	if cl.der != nil {
		st.PivotBuckets += cl.der.buckets
	}
	return compResult{kept: keptOf(cl.tuples, cl.flags), store: cl.store, stats: st, closure: len(cl.tuples)}
}

// Component scheduling thresholds for Workers > 1.
const (
	// hubMinTuples is the least size at which a dominant component closing
	// from scratch is closed with intra-component parallelism; below it the
	// per-worker setup outweighs the closure.
	hubMinTuples = 512
	// smallCompMax is the largest component closed inline on the assembler
	// goroutine instead of being dispatched through the worker pool — a
	// channel round-trip costs more than closing a few tuples, and
	// data-lake inputs produce thousands of singletons.
	smallCompMax = 16
)

// closeEach closes every listed component job, handing each result to
// deliver on the calling goroutine as soon as its component finishes
// (completion order, tagged with the component index) — which is what
// backs per-component progress and decoding while other components close.
// With workers > 1 the jobs are split three ways. A hub is closed first,
// with every worker inside it (closePivotPar), and a job is a hub iff it
// closes from scratch (nil worklist), has at least hubMinTuples tuples,
// holds at least half of the round's tuples, and has a pivot column to
// decompose by — the column is chosen here, once, and travels on the job.
// Components up to smallCompMax tuples run inline on the assembler (no
// goroutine spawn — Workers must never pessimize a tiny-component
// workload). The rest —
// including every cached closure being extended, whatever its size, and
// every component without a pivot — are closed by the sequential closure,
// scheduled whole across a worker pool, largest first, flowing back to the
// assembler through a channel; a cached closure is thereby extended in place
// exactly as with workers <= 1.
// The context is checked at every component boundary (and inside
// components by the closures). Returns the first component error,
// context cancellation, or deliver error; later deliveries are suppressed
// after a failure, but in-flight components drain before returning.
func (e *engine) closeEach(ctx context.Context, jobs []closeJob, opts Options, bud *budget, deliver func(ci int, r compResult) error) error {
	inline := func(indices []int) error {
		for _, ci := range indices {
			if err := ctx.Err(); err != nil {
				return Canceled(err)
			}
			r := e.closeOne(ctx, jobs[ci], opts, bud)
			if r.err != nil {
				return r.err
			}
			if err := deliver(ci, r); err != nil {
				return err
			}
		}
		return nil
	}
	if opts.Workers <= 1 {
		all := make([]int, len(jobs))
		for i := range all {
			all[i] = i
		}
		return inline(all)
	}

	total := 0
	for i := range jobs {
		total += len(jobs[i].tuples)
	}
	var hubs, pool, small []int
	for ci := range jobs {
		job := &jobs[ci]
		n := len(job.tuples)
		if job.work == nil && n >= hubMinTuples && 2*n >= total {
			job.pivoted, job.pivot = true, pivotFor(opts, job.tuples, e.nCols)
		}
		switch {
		case job.pivoted && job.pivot >= 0:
			hubs = append(hubs, ci)
		case n > smallCompMax:
			pool = append(pool, ci)
		default:
			small = append(small, ci)
		}
	}
	if err := inline(hubs); err != nil {
		return err
	}
	workers := opts.Workers
	if workers > len(pool) {
		workers = len(pool)
	}
	if workers <= 1 {
		// One pool component (or none): nothing to schedule across workers;
		// run everything inline without spawning goroutines.
		return inline(append(pool, small...))
	}
	// Dispatch largest pool components first for balance.
	sort.SliceStable(pool, func(a, b int) bool {
		return len(jobs[pool[a]].tuples) > len(jobs[pool[b]].tuples)
	})
	type closedComp struct {
		ci int
		r  compResult
	}
	feed := make(chan int)
	out := make(chan closedComp)
	stop := make(chan struct{})
	go func() { // feeder: stops dispatching once a failure is seen
		defer close(feed)
		for _, ci := range pool {
			select {
			case feed <- ci:
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range feed {
				out <- closedComp{ci: ci, r: e.closeOne(ctx, jobs[ci], opts, bud)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			close(stop)
		}
	}
	// Small components run inline while the pool works; they are cheap by
	// construction, so the pool workers block on the out channel only
	// briefly.
	for _, ci := range small {
		if firstErr != nil {
			break
		}
		if err := ctx.Err(); err != nil {
			fail(Canceled(err))
			break
		}
		r := e.closeOne(ctx, jobs[ci], opts, bud)
		if r.err != nil {
			fail(r.err)
			break
		}
		if err := deliver(ci, r); err != nil {
			fail(err)
		}
	}
	for cc := range out { // assembler: single goroutine, serialized delivery
		switch {
		case cc.r.err != nil:
			fail(cc.r.err)
		case firstErr == nil:
			if err := deliver(cc.ci, cc.r); err != nil {
				fail(err)
			}
		}
	}
	if firstErr == nil {
		if err := ctx.Err(); err != nil {
			return Canceled(err)
		}
	}
	return firstErr
}

// closeSet closes the listed component jobs through closeEach and returns
// one compResult per job, in order; merge work counters land in stats. Each
// completion reaches hook first, on the assembling goroutine — the index
// puts the component's kept tuples in value order and decodes them there —
// and then opts.Progress.
func (e *engine) closeSet(ctx context.Context, jobs []closeJob, opts Options, bud *budget, stats *Stats, hook func(ci int, r compResult)) ([]compResult, error) {
	results := make([]compResult, len(jobs))
	done := 0
	err := e.closeEach(ctx, jobs, opts, bud, func(ci int, r compResult) error {
		results[ci] = r
		stats.mergeWork(r.stats)
		hook(ci, r)
		done++
		if opts.Progress != nil {
			opts.Progress(ComponentProgress{
				Done: done, Total: len(jobs), Members: jobs[ci].base, Closure: r.closure,
				PivotColumn: r.stats.PivotColumn, PivotSkipped: r.stats.PivotSkipped,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
