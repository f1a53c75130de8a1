package fd

import (
	"context"
	"sort"
	"time"

	"fuzzyfd/internal/table"
)

// Stream computes the Full Disjunction and emits output rows as soon as
// their connected component closes, instead of materializing the whole
// result first. Components are closed concurrently with opts.Workers (the
// closers hand finished components to the assembler through a channel) and
// emitted in a deterministic order — components ordered by their smallest
// base tuple, rows within a component in value order — so repeated runs
// over the same input produce the same byte stream. The emitted row set
// equals FullDisjunction's output up to row order, with one caveat: an
// all-null row (possible only from fully-empty input rows) is
// dropped rather than provenance-folded when other components exist,
// because its subsumer may already be emitted.
//
// emit runs on the calling goroutine. If it returns an error, streaming
// stops and that error is returned. Cancellation is observed exactly as in
// FullDisjunctionContext; rows already emitted stay emitted — the partial
// prefix is the point of streaming.
func Stream(ctx context.Context, tables []*table.Table, schema Schema, opts Options, emit func(row table.Row, prov []TID) error) (Stats, error) {
	start := time.Now()
	var stats Stats
	if err := schema.Validate(tables); err != nil {
		return stats, err
	}
	if err := ctx.Err(); err != nil {
		return stats, Canceled(err)
	}
	for _, t := range tables {
		stats.InputTuples += len(t.Rows)
	}

	eng, base := outerUnion(tables, schema)
	stats.OuterUnion = len(base)
	stats.Values = eng.dict.Len()

	comps := eng.partition(base)
	// Emission order: smallest base tuple first, within and across
	// components.
	for _, comp := range comps {
		sort.Slice(comp, func(a, b int) bool {
			return eng.lessCells(comp[a].Cells, comp[b].Cells)
		})
	}
	sort.Slice(comps, func(a, b int) bool {
		return eng.lessCells(comps[a][0].Cells, comps[b][0].Cells)
	})
	stats.Components = len(comps)
	stats.DirtyComponents = len(comps)
	for _, comp := range comps {
		if len(comp) > stats.LargestComp {
			stats.LargestComp = len(comp)
		}
	}

	bud := newBudget(opts, len(base), eng)
	kept := 0    // tuples surviving subsumption in delivered components
	emitted := 0 // rows actually handed to emit
	// Components complete in any order under Workers > 1; buffer
	// out-of-order completions and flush the contiguous prefix so emission
	// order stays deterministic.
	pending := make(map[int]compResult)
	next := 0
	done := 0
	flush := func() error {
		for {
			r, ok := pending[next]
			if !ok {
				return nil
			}
			delete(pending, next)
			ci := next
			next++
			if len(comps[ci]) == 1 && allNull(comps[ci][0].Cells) && len(comps) > 1 {
				// The dropped all-null row counts as subsumed, exactly as
				// the batch engine's foldAllNull does (see the doc
				// comment's caveat).
				kept--
				continue
			}
			rows := r.kept
			sort.Slice(rows, func(a, b int) bool {
				return eng.lessCells(rows[a].Cells, rows[b].Cells)
			})
			for _, tp := range rows {
				if err := emit(eng.decodeRow(tp.Cells), tp.Prov); err != nil {
					return err
				}
				emitted++
			}
		}
	}
	// deliver accounts one closed component and flushes the in-order
	// prefix; Progress fires after the rows are out, so callbacks can
	// treat it as a per-component flush point.
	deliver := func(ci int, r compResult) error {
		stats.Closure += r.closure
		if r.closure > stats.LargestClose {
			stats.LargestClose = r.closure
		}
		kept += len(r.kept)
		done++
		pending[ci] = r
		if err := flush(); err != nil {
			return err
		}
		if opts.Progress != nil {
			opts.Progress(ComponentProgress{Done: done, Total: len(comps), Members: len(comps[ci]), Closure: r.closure})
		}
		return nil
	}
	// Components complete in schedule order, but deliveries arrive per
	// closed component and the pending buffer plus the per-component sort
	// restore the deterministic emission order.
	err := eng.closeEach(ctx, jobsOf(comps), opts, bud, func(ci int, r compResult) error {
		stats.mergeWork(r.stats)
		return deliver(ci, r)
	})
	stats.ReclosedTuples = stats.Closure
	stats.Subsumed = stats.Closure - kept
	stats.Output = emitted
	stats.MemoryBytes = bud.bytes()
	stats.Elapsed = time.Since(start)
	return stats, err
}
