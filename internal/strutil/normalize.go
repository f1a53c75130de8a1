// Package strutil provides the string primitives shared by the embedders,
// the value-matching blocker, and the entity matcher: normalization,
// tokenization, character n-grams, edit distances, phonetic keys, and
// abbreviation signatures.
package strutil

import (
	"strings"
	"unicode"
)

// Fold lowercases s, trims surrounding whitespace, and collapses internal
// whitespace runs to single spaces. It is the canonical comparison form used
// throughout the system.
func Fold(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	space := false
	started := false
	for _, r := range s {
		if unicode.IsSpace(r) {
			space = started
			continue
		}
		if space {
			sb.WriteByte(' ')
			space = false
		}
		sb.WriteRune(unicode.ToLower(r))
		started = true
	}
	return sb.String()
}

// StripPunct removes punctuation and symbol runes, collapsing any resulting
// whitespace runs. "U.S.A." becomes "USA"; "rock-n-roll" becomes "rocknroll".
func StripPunct(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, r := range s {
		if unicode.IsPunct(r) || unicode.IsSymbol(r) {
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// Tokens splits s into maximal runs of letters and digits, lowercased.
// Punctuation and whitespace are separators. "New-Delhi (IN)" yields
// ["new", "delhi", "in"].
func Tokens(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return out
}

// TokensCased splits s like Tokens but preserves letter case. Used by the
// case-sensitive FastText-tier embedder.
func TokensCased(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// SortedTokenSet returns the distinct tokens of s in sorted order, joined by
// single spaces. Token order and multiplicity are erased, so "Miller, Renée"
// and "Renée Miller" produce the same key.
func SortedTokenSet(s string) string {
	toks := Tokens(s)
	if len(toks) == 0 {
		return ""
	}
	seen := make(map[string]bool, len(toks))
	uniq := toks[:0]
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}
	insertionSort(uniq)
	return strings.Join(uniq, " ")
}

func insertionSort(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
