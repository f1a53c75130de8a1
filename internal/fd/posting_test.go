package fd

import (
	"math/rand"
	"slices"
	"testing"

	"fuzzyfd/internal/intern"
)

// refPostings is the naive reference for postingIndex: the set of posted
// store IDs, probed by scanning them all.
type refPostings struct {
	posted []bool
	upTo   int
}

func (r *refPostings) post(id int) {
	for len(r.posted) <= id {
		r.posted = append(r.posted, false)
	}
	r.posted[id] = true
}

// probe returns the posted IDs a probe for cells visits — those sharing a
// non-null value with cells, minus, on a pivoted probe, those holding
// another non-null pivot value — and how many (column, ID) pairs it passes
// over as skipped for that.
func (r *refPostings) probe(cells []uint32, tuples []Tuple, pivot int) (visited []int, skipped int) {
	for c, sym := range cells {
		if sym == intern.Null {
			continue
		}
		for j, ok := range r.posted {
			if !ok || c >= len(tuples[j].Cells) || tuples[j].Cells[c] != sym {
				continue
			}
			if pivot >= 0 && cells[pivot] != intern.Null {
				if q := tuples[j].Cells[pivot]; q != intern.Null && q != cells[pivot] {
					skipped++
					continue
				}
			}
			visited = append(visited, j)
		}
	}
	slices.Sort(visited)
	return slices.Compact(visited), skipped
}

// buckets counts the distinct (column, symbol, pivot symbol) triples of the
// given tuples.
func buckets(tuples []Tuple, ids []int32, pivot int) int {
	if pivot < 0 {
		return 0
	}
	seen := map[[3]uint32]bool{}
	for _, j := range ids {
		cells := tuples[j].Cells
		for c, sym := range cells {
			if sym != intern.Null {
				seen[[3]uint32{uint32(c), sym, cells[pivot]}] = true
			}
		}
	}
	return len(seen)
}

// TestPostingIndexMatchesReference drives seeded random stores through
// interleaved posts (frozen builds and delta adds), compactions, pivot
// changes and probes, and checks after every step that each probe visits
// the same IDs with the same skipped count as a naive scan of the posted
// set, that the held IDs agree with it, and that the bucket count is the
// frozen part's.
func TestPostingIndexMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nCols := 2 + rng.Intn(4)
		randCells := func() []uint32 {
			cells := make([]uint32, nCols)
			for c := range cells {
				if rng.Intn(3) > 0 {
					cells[c] = uint32(1 + rng.Intn(2+c))
				}
			}
			return cells
		}
		var tuples []Tuple
		var flags []uint8
		idx := newPostingIndex(-1)
		if rng.Intn(2) == 0 {
			idx = newPostingIndex(rng.Intn(nCols))
		}
		ref := &refPostings{}
		base := rng.Intn(2) == 0 // which entries postFrom posts
		ingest := rng.Intn(4) == 0

		check := func(step int, what string) {
			t.Helper()
			var held []int // an all-null tuple is in no list
			for j, ok := range ref.posted {
				if ok && !allNull(tuples[j].Cells) {
					held = append(held, j)
				}
			}
			var got []int
			for _, id := range idx.heldIDs() {
				got = append(got, int(id))
			}
			if !slices.Equal(got, held) || idx.frozenN+idx.deltaN != len(held) {
				t.Fatalf("seed %d step %d (%s): held %v (%d frozen, %d in the delta), want %v",
					seed, step, what, got, idx.frozenN, idx.deltaN, held)
			}
			frozen := slices.Compact(slices.Sorted(slices.Values(idx.ids)))
			if want := buckets(tuples, frozen, idx.pivot); idx.buckets != want {
				t.Fatalf("seed %d step %d (%s): %d buckets, want %d", seed, step, what, idx.buckets, want)
			}
			probes := [][]uint32{randCells(), randCells()}
			for _, tp := range tuples {
				probes = append(probes, tp.Cells)
			}
			var seen stampSet
			for _, cells := range probes {
				var visited []int
				seen.next(len(tuples))
				skipped := idx.candidates(-1, cells, &seen, func(j int) { visited = append(visited, j) })
				slices.Sort(visited)
				want, wantSkipped := ref.probe(cells, tuples, idx.pivot)
				if !slices.Equal(visited, want) || skipped != wantSkipped {
					t.Fatalf("seed %d step %d (%s), pivot %d, probe %v: visited %v skipped %d, want %v skipped %d",
						seed, step, what, idx.pivot, cells, visited, skipped, want, wantSkipped)
				}
			}
		}

		for step := 0; step < 60; step++ {
			// Grow the store by a few entries.
			for range rng.Intn(6) {
				tuples = append(tuples, Tuple{Cells: randCells()})
				flags = append(flags, uint8(rng.Intn(4))) // entryBase and entryExtended at random
			}
			var what string
			switch op := rng.Intn(5); {
			case ingest:
				what = "post"
				var ids []int32
				for i := idx.upTo; i < len(tuples); i++ {
					ref.post(i)
					ids = append(ids, int32(i))
				}
				idx.post(tuples, ids)
			case op == 0 && ref.upTo > 0:
				// A store entry below upTo joins the postings on its own, as a
				// derived entry turning base does (Index.seed).
				what = "add"
				if id := rng.Intn(ref.upTo); id >= len(ref.posted) || !ref.posted[id] {
					ref.post(id)
					idx.add(id, tuples[id].Cells)
				}
			case op == 1:
				what = "setPivot"
				idx.setPivot(tuples, rng.Intn(nCols+1)-1)
				check(step, what) // a probe needs no post after a pivot change
				fallthrough
			case op == 2:
				what += "+rechoosePivot"
				idx.rechoosePivot(Options{NoPivot: rng.Intn(5) == 0}, tuples, nCols)
				fallthrough
			default:
				what += "+postFrom"
				for i := idx.upTo; i < len(tuples); i++ {
					if f := flags[i]; base && f&entryBase != 0 || !base && f == 0 {
						ref.post(i)
					}
				}
				idx.postFrom(tuples, flags, base)
			}
			ref.upTo = idx.upTo
			check(step, what)
		}
	}
}

// TestSigIndexMatchesReference checks find and addHashed against a map of
// hash → ID lists on seeded random stores, with collisions forced by
// indexing some entries under another entry's hash so that finds walk the
// chains.
func TestSigIndexMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sigs := newSigIndex(0)
		ref := map[uint64][]int{}
		var store []Tuple
		refFind := func(cells []uint32, hash uint64) (int, bool) {
			for _, id := range ref[hash] {
				if equalCells(store[id].Cells, cells) {
					return id, true
				}
			}
			return 0, false
		}
		for step := 0; step < 400; step++ {
			// Cells of varying width: trailing nulls must not matter.
			cells := make([]uint32, 1+rng.Intn(4))
			for c := range cells {
				if rng.Intn(3) > 0 {
					cells[c] = uint32(1 + rng.Intn(3))
				}
			}
			id, hash, ok := sigs.find(cells, store)
			wantID, wantOK := refFind(cells, hashCells(cells))
			if hash != hashCells(cells) || ok != wantOK || ok && id != wantID {
				t.Fatalf("seed %d step %d: find(%v) = %d, %v; want %d, %v", seed, step, cells, id, ok, wantID, wantOK)
			}
			if ok {
				continue
			}
			if len(store) > 0 && rng.Intn(3) == 0 {
				hash = hashCells(store[rng.Intn(len(store))].Cells) // a forced collision
			}
			sigs.addHashed(hash, len(store))
			ref[hash] = append(ref[hash], len(store))
			store = append(store, Tuple{Cells: cells})
		}
		for hash, ids := range ref {
			for _, id := range ids {
				got, ok := -1, false
				for at, found := sigs.head[hash]; found && at >= 0; at = sigs.next[at] {
					if int(at) == id {
						got, ok = id, true
					}
				}
				if !ok {
					t.Fatalf("seed %d: ID %d missing from the chain of hash %x (got %d)", seed, id, hash, got)
				}
			}
		}
	}
}
