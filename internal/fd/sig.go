package fd

import (
	"slices"
	"sync/atomic"

	"fuzzyfd/internal/intern"
)

// Tuple signatures. The pre-interned engine keyed deduplication maps on a
// string concatenation of every cell's full text, re-hashing tuple text at
// each probe. With interned cells a signature is a 64-bit FNV-1a hash over
// the symbol words; identity is confirmed by integer slice comparison, so
// no tuple text is touched on the hot path.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// trimCells drops trailing null cells: the width-independent form of a
// tuple, over which signatures are defined.
func trimCells(cells []uint32) []uint32 {
	n := len(cells)
	for n > 0 && cells[n-1] == intern.Null {
		n--
	}
	return cells[:n]
}

// hashCells computes FNV-1a over the symbol slice, one 32-bit word per
// round (the word-at-a-time variant: symbols are already avalanche-mixed by
// the prime multiplications, so byte-at-a-time buys nothing here). Trailing
// null cells are not hashed, so a signature is width-stable: widening the
// integrated schema appends null cells to every stored tuple and leaves
// every signature index valid.
func hashCells(cells []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, sym := range trimCells(cells) {
		h ^= uint64(sym)
		h *= fnvPrime64
	}
	return h
}

// equalCells is tuple identity under the same convention: equal cell for
// cell, a missing trailing cell reading as null.
func equalCells(a, b []uint32) bool {
	if len(a) != len(b) {
		a, b = trimCells(a), trimCells(b)
	}
	return slices.Equal(a, b)
}

// sigIndex maps tuple cell signatures to tuple IDs within one tuple store,
// confirming identity by symbol comparison against the store. head holds
// the newest ID per hash and next[id] the ID before it under the same hash
// (-1 ends the chain), so an indexed tuple costs one int32 plus its share of
// one map entry, and no slice. Chain order cannot matter: a store never
// holds two entries with equal cells, because this index is what enforces
// that.
type sigIndex struct {
	head map[uint64]int32
	next []int32
}

// newSigIndex returns an empty index with room for n tuples.
func newSigIndex(n int) *sigIndex {
	return &sigIndex{head: make(map[uint64]int32, n), next: make([]int32, 0, n)}
}

// find returns the ID of the tuple in store with the given cells, plus the
// cells' hash for a subsequent addHashed.
func (s *sigIndex) find(cells []uint32, store []Tuple) (id int, hash uint64, ok bool) {
	hash = hashCells(cells)
	at, ok := s.head[hash]
	for ok && at >= 0 {
		if equalCells(store[at].Cells, cells) {
			return int(at), hash, true
		}
		at = s.next[at]
	}
	return 0, hash, false
}

// add indexes a new tuple ID under its cells' hash.
func (s *sigIndex) add(cells []uint32, id int) {
	s.addHashed(hashCells(cells), id)
}

// addHashed indexes a new tuple ID under a hash already computed by find.
func (s *sigIndex) addHashed(hash uint64, id int) {
	for len(s.next) <= id {
		s.next = append(s.next, -1)
	}
	prev, ok := s.head[hash]
	if !ok {
		prev = -1
	}
	s.next[id], s.head[hash] = prev, int32(id)
}

// budget enforces Options.MaxBytes across the whole computation. A hub's
// pivot groups close concurrently, so the live tuple count is shared; each
// new tuple reserves a slot. The ceiling reads that counter through a
// linear model: estimated bytes = the engine dictionary's retained bytes
// (fixed at budget creation — interning happens at outer-union time, before
// closures run) + live tuples × a per-tuple cost scaled by schema width. A
// nil budget is unlimited.
type budget struct {
	maxBytes  int64
	baseBytes int64 // dictionary bytes, already resident before the closure
	perTuple  int64 // estimated bytes one live closure tuple retains
	n         atomic.Int64
}

// Estimated bytes one live closure tuple retains beyond the dictionary,
// fitted to the live heap of equi IMDB sessions at 8 000 and 30 000 input
// tuples and at two schema widths, the IMDB schema's 16 columns and 76
// (the same tables padded with null columns; TestMemoryModel): the tuple
// in its closure store with its flags, provenance and share of the store's
// signature and posting indexes, the cached kept tuples and decoded output
// rows, and the session's base store and ingest indexes — plus, per
// column, its cell symbol and its share of the decoded rows' cells (8.1 to
// 8.2 B measured). The fit is a session's: a one-shot FullDisjunctionContext
// holds no base store or ingest index, and its peak heap is not measured
// against the model.
const (
	tupleBaseBytes = 290
	tupleColBytes  = 8
)

// memoryModel returns the linear model's fixed bytes (the dictionary's)
// and its bytes per live tuple at eng's schema width.
func memoryModel(eng *engine) (baseBytes, perTuple int64) {
	perTuple = tupleBaseBytes
	if eng != nil {
		baseBytes = eng.dict.Bytes()
		perTuple += tupleColBytes * int64(eng.nCols)
	}
	return baseBytes, perTuple
}

// newBudget returns a budget with initial tuples already live, or nil when
// no ceiling is set (unlimited).
func newBudget(opts Options, initial int, eng *engine) *budget {
	if opts.MaxBytes <= 0 {
		return nil
	}
	b := &budget{maxBytes: opts.MaxBytes}
	b.baseBytes, b.perTuple = memoryModel(eng)
	b.n.Store(int64(initial))
	return b
}

// check reports whether the live count is already over the ceiling (the
// pre-closure check: an outer union larger than the budget fails on the
// first component processed, matching the global engine).
func (b *budget) check() error {
	if b == nil {
		return nil
	}
	return b.over(b.n.Load())
}

// add reserves k new tuples, reporting ErrMemoryBudget once the total
// exceeds the ceiling.
func (b *budget) add(k int) error {
	if b == nil {
		return nil
	}
	return b.over(b.n.Add(int64(k)))
}

// over reports ErrMemoryBudget when n live tuples exceed the ceiling.
func (b *budget) over(n int64) error {
	if b.baseBytes+n*b.perTuple > b.maxBytes {
		return ErrMemoryBudget
	}
	return nil
}
