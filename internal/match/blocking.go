package match

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"fuzzyfd/internal/assign"
	"fuzzyfd/internal/lexicon"
	"fuzzyfd/internal/strutil"
)

// maxBucket caps the size of a single blocking bucket of the indexed side
// (B, the next column's values); how many representatives on side A share
// the key is not checked. Buckets larger than this (stopword-like tokens
// shared by half the column) generate quadratically many candidates while
// carrying almost no signal, so they are skipped; the remaining key
// families still cover such pairs.
const maxBucket = 64

// blockingKeys returns the candidate-generation keys for a value. Two
// values can only be within θ under the feature-hash embedders if they
// share surface or structural features, and every feature family used by
// the embedders is covered by a key family here:
//
//   - the folded form (exact and case/whitespace variants)
//   - the sorted token set (token reorderings)
//   - the consonant skeleton (vowel typos, doubled letters)
//   - the abbreviation signature (initialisms)
//   - the phonetic key (sound-alike misspellings)
//   - the 3 smallest hashed trigrams (general typos)
//   - individual tokens (shared-word overlap; bucket-capped)
//   - the entity-lexicon ID (synonyms and codes)
func blockingKeys(v string, lex *lexicon.Lexicon) []string {
	var keys []string
	add := func(family, k string) {
		if k != "" {
			keys = append(keys, family+":"+k)
		}
	}
	folded := strutil.Fold(v)
	add("f", folded)
	add("ts", strutil.SortedTokenSet(v))
	add("sk", strutil.ConsonantSkeleton(v))
	add("ab", strutil.AbbrevSignature(v))
	add("ph", strutil.PhoneticKey(v))
	for _, g := range minTrigrams(folded, 3) {
		add("g3", g)
	}
	for _, t := range strutil.Tokens(v) {
		add("t", t)
	}
	if lex != nil {
		if id, ok := lex.Lookup(v); ok {
			add("lx", id)
		}
	}
	return keys
}

// minTrigrams returns the k lexicographically-smallest-by-hash padded
// trigrams of s — a tiny MinHash that makes typo variants of the same
// string very likely to share at least one key.
func minTrigrams(s string, k int) []string {
	grams := strutil.CharNGrams(s, 3, true)
	if len(grams) == 0 {
		return nil
	}
	type hg struct {
		h uint32
		g string
	}
	hs := make([]hg, len(grams))
	for i, g := range grams {
		hs[i] = hg{h: strutil.FNV1a("", g), g: g}
	}
	slices.SortFunc(hs, func(a, b hg) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return strings.Compare(a.g, b.g)
	})
	// A repeated gram repeats its hash too, so its copies are adjacent.
	hs = slices.CompactFunc(hs, func(a, b hg) bool { return a.g == b.g })
	if len(hs) > k {
		hs = hs[:k]
	}
	out := make([]string, len(hs))
	for i, x := range hs {
		out[i] = x.g
	}
	return out
}

// blocker is the blocked path's memo for one match call. A value's blocking
// keys and point depend on the value alone, and representatives are values
// of earlier columns, so each distinct value is resolved once however many
// rounds and candidate pairs it takes part in. Keys are interned to dense
// ids by their full text, so two values share an id exactly when they share
// a key.
type blocker struct {
	keyIDs map[string]int32
	values map[string]*blockedValue
}

// blockedValue is what candidate generation needs to know about a value.
type blockedValue struct {
	keys  []int32 // interned blockingKeys, duplicates kept
	point         // zero unless the scorer is a vectorScorer
}

func (r *run) resolve(v string, lex *lexicon.Lexicon) *blockedValue {
	b := &r.blocker
	if bv, ok := b.values[v]; ok {
		return bv
	}
	if b.values == nil {
		b.keyIDs = make(map[string]int32)
		b.values = make(map[string]*blockedValue)
	}
	keys := blockingKeys(v, lex)
	bv := &blockedValue{keys: make([]int32, len(keys))}
	for i, k := range keys {
		id, ok := b.keyIDs[k]
		if !ok {
			id = int32(len(b.keyIDs))
			b.keyIDs[k] = id
		}
		bv.keys[i] = id
	}
	if r.vectors != nil {
		bv.point = r.point(v)
	}
	b.values[v] = bv
	return bv
}

// blockedEdges generates candidate (cluster, value) pairs via the blocking
// index and scores them, keeping edges under θ.
func (r *run) blockedEdges(reps, values []string, theta float64) []assign.Edge {
	lex := lexicon.Full()

	// Index side B by blocking key: key k's bucket is
	// items[start[k]:start[k+1]], ascending. Keys first interned by side A
	// below lie beyond start and have no bucket.
	side := make([]*blockedValue, len(values))
	for j, v := range values {
		side[j] = r.resolve(v, lex)
	}
	start := make([]int32, len(r.blocker.keyIDs)+1)
	for _, bv := range side {
		for _, k := range bv.keys {
			start[k+1]++
		}
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	items := make([]int32, start[len(start)-1])
	next := append([]int32(nil), start...)
	for j, bv := range side {
		for _, k := range bv.keys {
			items[next[k]] = int32(j)
			next[k]++
		}
	}

	var edges []assign.Edge
	seenBy := make([]int32, len(values)) // 1 + the last cluster that scored the value
	for i, v := range reps {
		rep := r.resolve(v, lex)
		for _, k := range rep.keys {
			if int(k)+1 >= len(start) {
				continue
			}
			bucket := items[start[k]:start[k+1]]
			if len(bucket) > maxBucket {
				continue
			}
			for _, j := range bucket {
				if seenBy[j] == int32(i)+1 {
					continue
				}
				seenBy[j] = int32(i) + 1
				r.stats.CandidatePairs++
				var d float64
				if r.vectors != nil {
					d = pointDistance(v, values[j], rep.point, side[j].point)
				} else {
					d = r.scorer.Distance(v, values[j])
				}
				if d < theta {
					edges = append(edges, assign.Edge{A: i, B: int(j), Cost: d})
				}
			}
		}
	}
	r.stats.Edges += len(edges)
	return edges
}

// Validate checks the guarantee the implementation provides for Definition
// 2: every member joined its cluster at a distance under θ from the
// then-current representative (recorded in Member.Dist), and every cluster
// has exactly one member per column at most (columns from the same table do
// not align with themselves, so a column contributes at most one value to a
// set of matched values). Returns the first violation found.
func Validate(clusters []Cluster, theta float64) error {
	for ci, c := range clusters {
		if len(c.Members) == 0 {
			return fmt.Errorf("match: cluster %d is empty", ci)
		}
		cols := make(map[int]bool, len(c.Members))
		repSeen := false
		for _, mem := range c.Members {
			if mem.Dist >= theta {
				return fmt.Errorf("match: cluster %d: member %q matched at distance %.3f (θ=%.2f)",
					ci, mem.Value, mem.Dist, theta)
			}
			if cols[mem.Col] {
				return fmt.Errorf("match: cluster %d: two members from column %d", ci, mem.Col)
			}
			cols[mem.Col] = true
			if mem.Value == c.Rep {
				repSeen = true
			}
		}
		if !repSeen {
			return fmt.Errorf("match: cluster %d: representative %q is not a member", ci, c.Rep)
		}
	}
	return nil
}
