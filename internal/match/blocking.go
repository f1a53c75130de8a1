package match

import (
	"cmp"
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

// blockingKeys returns the candidate-generation keys for a value: one or
// more per kind of surface or structural likeness the embedders reward.
// The keys do not cover every feature an embedder hashes, so two values
// within θ need not share one — a blocked round finds a subset of the
// dense round's edges (see the package doc). The key families:
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

// internKeys gives every record without blocking keys its interned keys,
// in the order given (a record listed twice is keyed once). The keys are
// computed concurrently over spans, then interned in order, so each key's
// id is the one keying the records one at a time would give it. Keys are
// interned to dense ids by their full text, so two values share an id
// exactly when they share a key.
func (r *run) internKeys(recs []*value, lex *lexicon.Lexicon) {
	var todo []*value
	for _, rec := range recs {
		if rec.keys == nil {
			rec.keys = []int32{} // listed: a repeat is skipped
			todo = append(todo, rec)
		}
	}
	keys := make([][]string, len(todo))
	split(len(todo), minSpanValues, func(lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			keys[i] = blockingKeys(todo[i].text, lex)
		}
		return struct{}{}
	})
	for i, rec := range todo {
		rec.keys = make([]int32, len(keys[i]))
		for k, key := range keys[i] {
			id, ok := r.keyIDs[key]
			if !ok {
				id = int32(len(r.keyIDs))
				r.keyIDs[key] = id
			}
			rec.keys[k] = id
		}
	}
}

// minSpanValues is about the fewest values worth a goroutine of a blocked
// round: values to key, or representatives whose candidates to score.
const minSpanValues = 128

// blockedEdges generates candidate (cluster, value) pairs via the blocking
// index and scores them, keeping edges under θ. Side A is scored over
// concurrent spans (see scoreSpans), each with its own scratch; each
// representative's edges are sorted by B, so they come ascending by (A, B).
func (r *run) blockedEdges(reps, values []string, theta float64) []assign.Edge {
	lex := lexicon.Full()
	side, a := r.records(values), r.records(reps)
	r.internKeys(side, lex)
	r.internKeys(a, lex)

	// Index side B by blocking key: key k's bucket is
	// items[start[k]:start[k+1]], ascending. Keys only side A holds have an
	// empty bucket.
	start := make([]int32, len(r.keyIDs)+1)
	for _, rec := range side {
		for _, k := range rec.keys {
			start[k+1]++
		}
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	items := make([]int32, start[len(start)-1])
	next := append([]int32(nil), start...)
	for j, rec := range side {
		for _, k := range rec.keys {
			items[next[k]] = int32(j)
			next[k]++
		}
	}

	out := scoreSpans(len(a), minSpanValues, func(lo, hi int) scored {
		var s scored
		seenBy := make([]int32, len(values)) // 1 + the last cluster that scored the value
		for i := lo; i < hi; i++ {
			rep, from := a[i], len(s.edges)
			for _, k := range rep.keys {
				bucket := items[start[k]:start[k+1]]
				if len(bucket) > maxBucket {
					continue
				}
				for _, j := range bucket {
					if seenBy[j] == int32(i)+1 {
						continue
					}
					seenBy[j] = int32(i) + 1
					s.pairs++
					if d := r.distance(rep, side[j]); d < theta {
						s.edges = append(s.edges, assign.Edge{A: i, B: int(j), Cost: d})
					}
				}
			}
			slices.SortFunc(s.edges[from:], func(x, y assign.Edge) int { return cmp.Compare(x.B, y.B) })
		}
		return s
	})
	r.stats.CandidatePairs += out.pairs
	r.stats.Edges += len(out.edges)
	return out.edges
}
