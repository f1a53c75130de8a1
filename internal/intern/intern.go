// Package intern implements a value dictionary: a bijective mapping from
// distinct cell strings to dense uint32 symbols. The Full Disjunction
// engine interns every cell once at outer-union time and then runs all
// hot-path work — signatures, posting-index probes, merge and consistency
// checks, subsumption — on integer symbols, decoding back to strings only
// when the result table is materialized.
//
// Symbol 0 (Null) is reserved for the null cell, so a tuple is a plain
// []uint32 and null checks are integer compares.
//
// A Dict is append-only: symbols, once assigned, never change meaning, so
// long-lived consumers (the incremental FD index of an integration
// session) can hold symbol-encoded tuples across many interning rounds.
// Snapshot captures an immutable view of the dictionary at a point in
// time; reads through a Snapshot stay valid — and safe against data races
// — while the parent Dict keeps growing.
package intern

// Null is the reserved symbol for the null cell. Dictionaries never assign
// it to a value.
const Null uint32 = 0

// Dict is a symbol table for cell values. The zero value is not usable;
// call NewDict. Interning is not safe for concurrent use; lookups by symbol
// are safe concurrently with each other once interning is done (the FD
// engine interns single-threaded during the outer union and only reads
// afterwards).
type Dict struct {
	ids   map[string]uint32
	vals  []string // vals[sym-1] is the value of symbol sym
	bytes int64    // estimated retained bytes, maintained by Intern
}

// dictEntryBytes estimates the fixed per-value overhead of one interned
// value: its map entry, string headers in vals and the map key, and its
// amortized share of the map's buckets. The point is a stable linear model
// for memory budgeting, not allocator-exact accounting.
const dictEntryBytes = 64

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// Intern returns the symbol for s, assigning the next dense symbol on first
// sight. Symbols start at 1; 0 is reserved for Null.
func (d *Dict) Intern(s string) uint32 {
	if sym, ok := d.ids[s]; ok {
		return sym
	}
	d.vals = append(d.vals, s)
	sym := uint32(len(d.vals))
	d.ids[s] = sym
	d.bytes += int64(len(s)) + dictEntryBytes
	return sym
}

// Symbol returns the symbol for s without interning, and whether s is
// known.
func (d *Dict) Symbol(s string) (uint32, bool) {
	sym, ok := d.ids[s]
	return sym, ok
}

// Value returns the string for a non-Null symbol. Symbols come only from
// Intern, so an unknown or Null symbol is a programming error and panics.
func (d *Dict) Value(sym uint32) string {
	return d.vals[sym-1]
}

// Len reports the number of distinct interned values (excluding Null).
func (d *Dict) Len() int { return len(d.vals) }

// Snapshot is an immutable view of the first Len symbols of a Dict. The
// backing array is shared with the parent (entries never mutate, and the
// three-index slice below caps further appends out of the view), so taking
// one is O(1) and later Intern calls on the parent neither invalidate the
// view nor race with reads through it.
type Snapshot struct {
	vals  []string
	bytes int64
}

// Snapshot captures the dictionary's current contents as an immutable
// view. Symbols interned after the snapshot are unknown to it.
func (d *Dict) Snapshot() Snapshot {
	return Snapshot{vals: d.vals[:len(d.vals):len(d.vals)], bytes: d.bytes}
}

// Len reports the number of symbols the snapshot covers.
func (s Snapshot) Len() int { return len(s.vals) }

// Bytes estimates the memory retained by the snapshotted dictionary.
func (s Snapshot) Bytes() int64 { return s.bytes }

// Value returns the string for a non-Null symbol covered by the snapshot.
// As with Dict.Value, an unknown or Null symbol panics.
func (s Snapshot) Value(sym uint32) string { return s.vals[sym-1] }

// Less orders two snapshot symbols by the value order the engine sorts
// output rows with: Null before any value, values by their strings.
// Distinct symbols always hold distinct strings, so Less is a strict weak
// ordering.
func (s Snapshot) Less(a, b uint32) bool {
	if a == b {
		return false
	}
	if a == Null || b == Null {
		return a == Null
	}
	return s.vals[a-1] < s.vals[b-1]
}
