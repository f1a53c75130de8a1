package fd

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"slices"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// Component persistence: ExportComponents snapshots the closure results of
// an Index's clean components in portable (decoded) form, and
// RestoreComponents stages such snapshots on a fresh Index for adoption.
// Adoption happens lazily inside the next Update: after ingest has rebuilt
// the base layout from the replayed tables, a dirty component group whose
// membership and base-tuple content digest exactly match a staged export
// adopts the exported kept tuples instead of re-closing — the closure, the
// dominant cost, is skipped. Ingest is deterministic (same tables, same
// schema, same dictionary growth order produce the same base layout), so
// after a crash-recovery replay of identical inputs every snapshotted
// component matches; a component the replayed tail extended, or whose
// cells drifted (a different matching configuration at reopen), fails the
// digest check and simply re-closes — adoption can stale-read nothing.
//
// An adopted component carries no closure store, so its first re-closure
// after going dirty brings its members back from their base tuples rather
// than extending a store; the store is rebuilt then and incrementality
// resumes.

// CompExport is one component's closure result in portable form: member
// base ids, a digest binding the export to the exact base-tuple content it
// was computed from, and the kept (closed + subsumption-reduced) tuples
// with decoded cells.
type CompExport struct {
	Members []int    // base tuple ids, ascending
	Digest  [32]byte // compDigest over the members' base tuples
	Closure int      // closure size, for stats and budget seeding
	Kept    []PortableTuple
}

// PortableTuple is one kept tuple with cells decoded to table cells.
type PortableTuple struct {
	Row  table.Row
	Prov []TID
}

// ExportComponents snapshots every component that is clean, unclaimed, and
// cached at its current membership. Components mid-closure under a
// concurrent Update, or dirtied by an ingest that has not closed yet, are
// skipped — recovery re-closes them from their base tuples instead.
func (x *Index) ExportComponents() []CompExport {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.started {
		return nil
	}
	snap := x.dict.Snapshot()
	eng := &engine{dict: snap, nCols: x.nCols}
	var out []CompExport
	for _, c := range x.order {
		if c == nil || c.inflight > 0 || len(c.dirty) > 0 {
			continue
		}
		rec := c.caches[0]
		members := slices.Sorted(slices.Values(c.members))
		kept := make([]PortableTuple, len(rec.kept))
		for i, tp := range rec.kept {
			kept[i] = PortableTuple{
				Row:  eng.decodeRow(tp.Cells),
				Prov: slices.Clone(tp.Prov),
			}
		}
		out = append(out, CompExport{
			Members: members,
			Digest:  x.compDigest(members, snap),
			Closure: rec.closure,
			Kept:    kept,
		})
	}
	return out
}

// RestoreComponents stages exported components for adoption by later
// Updates. It is meant for a fresh Index about to replay the inputs the
// exports were computed from; staging replaces any previous staging.
func (x *Index) RestoreComponents(comps []CompExport) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(comps) == 0 {
		x.restored = nil
		return
	}
	x.restored = make(map[int]*CompExport, len(comps))
	for i := range comps {
		c := &comps[i]
		if len(c.Members) > 0 {
			x.restored[c.Members[0]] = c
		}
	}
}

// RestoredStaged reports how many staged components await adoption —
// zero once every staged export was adopted or invalidated.
func (x *Index) RestoredStaged() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.restored)
}

// adoptRestored tries to satisfy one dirty component from the staged
// exports: exact membership match, exact base-content digest match, and
// every kept cell re-encodable under the live dictionary. On success the
// exported closure replaces the component's caches (with no closure store —
// the next dirty re-closure seeds from base) and its dirty marks clear. The
// staged entry is consumed either way: a mismatch can never match later,
// since membership and content only drift further. Callers hold x.mu.
func (x *Index) adoptRestored(c *comp) bool {
	rc, ok := x.restored[c.first]
	if !ok {
		return false
	}
	delete(x.restored, c.first)
	if len(x.restored) == 0 {
		x.restored = nil
	}
	members := slices.Sorted(slices.Values(c.members))
	if !slices.Equal(rc.Members, members) {
		return false
	}
	snap := x.dict.Snapshot()
	if x.compDigest(members, snap) != rc.Digest {
		return false
	}
	kept := make([]Tuple, len(rc.Kept))
	for i, pt := range rc.Kept {
		if len(pt.Row) != x.nCols {
			return false
		}
		cells := make([]uint32, x.nCols)
		for ci, cell := range pt.Row {
			if cell.IsNull {
				continue
			}
			sym, known := x.dict.Symbol(cell.Val)
			if !known {
				return false
			}
			cells[ci] = sym
		}
		kept[i] = Tuple{Cells: cells, Prov: slices.Clone(pt.Prov)}
	}
	// Cached kept tuples are in value order; exports written before that was
	// so need not be.
	eng := &engine{dict: snap, nCols: x.nCols}
	slices.SortFunc(kept, func(a, b Tuple) int { return eng.cmpCells(a.Cells, b.Cells) })
	for _, r := range c.caches {
		x.uncache(r)
	}
	for _, id := range c.dirty {
		x.dirty[id] = false
	}
	rec := &cachedComp{members: members, kept: kept, closure: rc.Closure}
	for _, id := range members {
		x.cover[id] = rec
	}
	c.caches, c.dirty, c.queued = nil, nil, false
	x.cache(c, rec)
	return true
}

// compDigest binds a component to the exact content of its base tuples:
// member ids, decoded cell values (width included), and provenance, in a
// varint-framed injective encoding. Two states with equal digests have
// byte-identical base tuples for the group, so an exported closure result
// computed on one is valid on the other.
func (x *Index) compDigest(members []int, snap intern.Snapshot) [32]byte {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	writeInt := func(n int) {
		h.Write(buf[:binary.PutUvarint(buf[:], uint64(n))])
	}
	writeInt(x.nCols)
	writeInt(len(members))
	for _, id := range members {
		writeInt(id)
		t := x.base[id]
		for _, sym := range t.Cells {
			if sym == intern.Null {
				writeInt(0)
			} else {
				v := snap.Value(sym)
				writeInt(len(v) + 1)
				io.WriteString(h, v)
			}
		}
		writeInt(len(t.Prov))
		for _, tid := range t.Prov {
			writeInt(tid.Table)
			writeInt(tid.Row)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
