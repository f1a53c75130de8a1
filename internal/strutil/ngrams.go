package strutil

import "strings"

// CharNGrams returns the character n-grams of s (as runes). If pad is true
// the string is framed with '#' markers first, so boundary grams are
// distinguished ("#be", "in#"). A string shorter than n yields the padded
// string itself when padding, or nothing otherwise.
func CharNGrams(s string, n int, pad bool) []string {
	if n <= 0 {
		return nil
	}
	if pad {
		s = "#" + s + "#"
	}
	r := []rune(s)
	if len(r) < n {
		if pad {
			return []string{string(r)}
		}
		return nil
	}
	out := make([]string, 0, len(r)-n+1)
	for i := 0; i+n <= len(r); i++ {
		out = append(out, string(r[i:i+n]))
	}
	return out
}

// QGramSet returns the distinct character n-grams of s.
func QGramSet(s string, n int) map[string]bool {
	set := make(map[string]bool)
	for _, g := range CharNGrams(s, n, true) {
		set[g] = true
	}
	return set
}

// QGramJaccard computes the Jaccard similarity of the q-gram sets of a and
// b. Returns 1 when both are empty.
func QGramJaccard(a, b string, q int) float64 {
	sa := QGramSet(a, q)
	sb := QGramSet(b, q)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for g := range sa {
		if sb[g] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Prefixes returns the rune prefixes of s with lengths in [min, max],
// clipped to the string length. Used as embedder features so that
// truncation-style abbreviations ("Univ" for "University") share features
// with their expansions.
func Prefixes(s string, min, max int) []string {
	r := []rune(s)
	var out []string
	for l := min; l <= max && l <= len(r); l++ {
		out = append(out, string(r[:l]))
	}
	return out
}

// JoinInitials returns the concatenated first runes of the tokens of s,
// lowercased: "New Delhi" → "nd", "United States of America" → "usoa".
func JoinInitials(s string) string {
	toks := Tokens(s)
	var sb strings.Builder
	for _, t := range toks {
		r := []rune(t)
		if len(r) > 0 {
			sb.WriteRune(r[0])
		}
	}
	return sb.String()
}
