package fd

import (
	"slices"

	"fuzzyfd/internal/table"
)

// Output assembly of the incremental index. An Update's result is
// every component's kept tuples in global value order. Each closure keeps
// its kept tuples sorted and decoded (cachedComp.kept, rows), and the index
// keeps the global order across Updates: an Update merges the closures it
// published into it and drops the ones it consumed, so the clean remainder
// is neither compared nor decoded again.

// outRow places one kept tuple of a closure in the assembled output. It is
// stale once the closure has been consumed by a later re-closure (gen
// differs).
type outRow struct {
	of  *cachedComp
	k   int32
	gen uint32
}

func (o outRow) cells() []uint32 { return o.of.kept[o.k].Cells }

// publication notes a closure cached at a generation.
type publication struct {
	of  *cachedComp
	gen uint32
}

// cache installs a closure on a live component and accounts for it.
func (x *Index) cache(c *comp, rec *cachedComp) {
	c.caches = append(c.caches, rec)
	x.closure += rec.closure
	x.covered += len(rec.members)
	if rec.closure > x.largestClose {
		x.largestClose = rec.closure
	}
	x.published = append(x.published, publication{of: rec, gen: rec.gen})
}

// uncache takes a closure a re-closure consumes out of the totals and
// retires its assembled rows.
func (x *Index) uncache(rec *cachedComp) {
	x.closure -= rec.closure
	x.covered -= len(rec.members)
	rec.gen++
}

// decodeKept decodes kept tuples in value order. old and oldRows, when
// given, are the same closure's previous kept tuples and their rows, in
// value order too: rows of tuples that survive carry over, so re-closing a
// large component decodes only what changed.
func (e *engine) decodeKept(kept, old []Tuple, oldRows []table.Row) []table.Row {
	rows := make([]table.Row, len(kept))
	o := 0
	for k, t := range kept {
		for o < len(oldRows) && e.cmpCells(old[o].Cells, t.Cells) < 0 {
			o++
		}
		if o < len(oldRows) && slices.Equal(old[o].Cells, t.Cells) {
			rows[k] = oldRows[o]
		} else {
			rows[k] = e.decodeRow(t.Cells)
		}
	}
	return rows
}

// assembleRows brings the assembled output up to date and returns the
// result rows with their provenance, in global value order: rows of
// closures consumed since the last assembly drop out, and the kept tuples
// of the closures published since are sorted among themselves and merged
// in. An all-null tuple (a fully-empty input row; always first in value
// order) is a singleton component whose subsumers all lie outside it: it is
// folded into the canonical global subsumer — the most informative row,
// ties by value order — when any informative tuple exists.
func (x *Index) assembleRows(eng *engine) ([]table.Row, [][]TID) {
	x.out = slices.DeleteFunc(x.out, func(o outRow) bool { return o.of.gen != o.gen })
	var add []outRow
	for _, p := range x.published {
		if p.of.gen != p.gen {
			continue // consumed again since
		}
		for k := range p.of.kept {
			add = append(add, outRow{of: p.of, k: int32(k), gen: p.gen})
		}
	}
	x.published = x.published[:0]
	slices.SortFunc(add, func(a, b outRow) int { return eng.cmpCells(a.cells(), b.cells()) })

	// Merge from the back, in place: the merge stops as soon as the new rows
	// are placed, so it touches only the tail past the smallest of them.
	i, j := len(x.out)-1, len(add)-1
	x.out = append(x.out, add...)
	for k := len(x.out) - 1; j >= 0; k-- {
		if i >= 0 && eng.cmpCells(add[j].cells(), x.out[i].cells()) < 0 {
			x.out[k] = x.out[i]
			i--
		} else {
			x.out[k] = add[j]
			j--
		}
	}

	rows := make([]table.Row, len(x.out))
	prov := make([][]TID, len(x.out))
	for k, o := range x.out {
		if o.of.rows == nil { // left undecoded by a widening
			o.of.rows = eng.decodeKept(o.of.kept, nil, nil)
		}
		rows[k], prov[k] = o.of.rows[o.k], o.of.kept[o.k].Prov
	}
	if len(rows) > 1 && allNull(x.out[0].cells()) {
		best, bestN := 0, 0
		for k := 1; k < len(x.out); k++ {
			if n := nonNullCount(x.out[k].cells()); n > bestN {
				best, bestN = k, n
			}
		}
		prov[best] = mergeProv(prov[best], prov[0])
		rows, prov = rows[1:], prov[1:]
	}
	return rows, prov
}
