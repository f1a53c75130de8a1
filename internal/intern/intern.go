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
// The index interns and reads its Dict only under its own lock, one Update
// at a time, so nothing reads a Dict while it grows.
package intern

// Null is the reserved symbol for the null cell. Dictionaries never assign
// it to a value.
const Null uint32 = 0

// Dict is a symbol table for cell values. The zero value is not usable;
// call NewDict. Interning is not safe for concurrent use; lookups by symbol
// are safe concurrently with each other once interning is done (an FD
// Update interns its delta first and only reads afterwards).
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

// Bytes estimates the memory retained by the dictionary.
func (d *Dict) Bytes() int64 { return d.bytes }

// Less orders two symbols by the value order the engine sorts output rows
// with: Null before any value, values by their strings. Distinct symbols
// always hold distinct strings, so Less is a strict weak ordering.
func (d *Dict) Less(a, b uint32) bool {
	if a == b {
		return false
	}
	if a == Null || b == Null {
		return a == Null
	}
	return d.vals[a-1] < d.vals[b-1]
}
