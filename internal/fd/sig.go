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

// budget enforces Options.MaxTuples and Options.MaxBytes across the whole
// computation. Component closures run concurrently, so the live tuple count
// is shared; each new tuple reserves a slot. The memory ceiling rides on
// the same counter through a linear model: estimated bytes = the engine
// dictionary's retained bytes (fixed at budget creation — interning happens
// at outer-union time, before closures run) + live tuples × a per-tuple
// cost scaled by schema width. A nil budget is unlimited.
type budget struct {
	maxTuples int64 // 0 = no tuple ceiling
	maxBytes  int64 // 0 = no byte ceiling
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
// 8.2 B measured). The fit is a session's: a one-shot FullDisjunction
// holds no base store or ingest index, and its peak heap is not measured
// against the model.
const (
	tupleBaseBytes = 290
	tupleColBytes  = 8
)

// newBudget returns a budget with initial tuples already live, or nil when
// neither ceiling is set (unlimited).
func newBudget(opts Options, initial int, eng *engine) *budget {
	if opts.MaxTuples <= 0 && opts.MaxBytes <= 0 {
		return nil
	}
	b := &budget{
		maxTuples: int64(opts.MaxTuples),
		maxBytes:  opts.MaxBytes,
		perTuple:  tupleBaseBytes,
	}
	if eng != nil {
		b.baseBytes = eng.dict.Bytes()
		b.perTuple += tupleColBytes * int64(eng.nCols)
	}
	b.n.Store(int64(initial))
	return b
}

// check reports whether the live count is already over either ceiling (the
// pre-closure check: an outer union larger than the budget fails on the
// first component processed, matching the global engine).
func (b *budget) check() error {
	if b == nil {
		return nil
	}
	return b.over(b.n.Load())
}

// add reserves k new tuples, reporting the violated ceiling's error once
// the total exceeds it.
func (b *budget) add(k int) error {
	if b == nil {
		return nil
	}
	return b.over(b.n.Add(int64(k)))
}

// over maps a live tuple count to the budget error it violates, if any.
// Tuples are checked first: when both ceilings are crossed the older,
// more specific signal wins.
func (b *budget) over(n int64) error {
	if b.maxTuples > 0 && n > b.maxTuples {
		return ErrTupleBudget
	}
	if b.maxBytes > 0 && b.baseBytes+n*b.perTuple > b.maxBytes {
		return ErrMemoryBudget
	}
	return nil
}

// bytes estimates the resident closure memory at the current live count.
func (b *budget) bytes() int64 {
	if b == nil {
		return 0
	}
	return b.baseBytes + b.n.Load()*b.perTuple
}
