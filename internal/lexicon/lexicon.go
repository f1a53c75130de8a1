// Package lexicon provides a curated synonym knowledge base: groups of
// surface forms that denote the same real-world entity ("Canada", "CA",
// "CAN"). It is the offline stand-in for the world knowledge a large
// language model brings to value embedding in the paper — the high-tier
// embedders consult it to place codes near their expansions, and the
// benchmark generator uses it to inject realistic synonym inconsistencies.
package lexicon

import (
	"sort"
	"strings"
	"sync"

	"fuzzyfd/internal/strutil"
)

// Entry is one entity with all of its known surface forms. Canonical is the
// preferred long form; Synonyms holds the alternates (codes, abbreviations,
// translations).
type Entry struct {
	ID        string
	Canonical string
	Synonyms  []string
}

// Forms returns the canonical form followed by the synonyms.
func (e Entry) Forms() []string {
	out := make([]string, 0, 1+len(e.Synonyms))
	out = append(out, e.Canonical)
	out = append(out, e.Synonyms...)
	return out
}

// Lexicon indexes entries by normalized surface form.
type Lexicon struct {
	entries []Entry
	index   map[string]string // normalized form -> entry ID
	terms   map[string]string // normalized token -> canonical token
}

// normalize is the lookup key normalization: fold case and whitespace, strip
// punctuation ("U.S.A." and "usa" collide).
func normalize(s string) string {
	return strutil.Fold(strutil.StripPunct(s))
}

// New builds a lexicon from entries plus token-level term pairs
// (abbreviated token → canonical token, e.g. "st" → "street").
func New(entries []Entry, termPairs map[string]string) *Lexicon {
	l := &Lexicon{
		entries: entries,
		index:   make(map[string]string),
		terms:   make(map[string]string),
	}
	for _, e := range entries {
		for _, f := range e.Forms() {
			key := normalize(f)
			if key == "" {
				continue
			}
			// First writer wins: earlier entries take precedence on collisions
			// (e.g. "georgia" the US state vs the country — data is ordered so
			// the more common reading comes first).
			if _, exists := l.index[key]; !exists {
				l.index[key] = e.ID
			}
		}
	}
	for abbr, full := range termPairs {
		l.terms[normalize(abbr)] = normalize(full)
	}
	return l
}

var (
	fullOnce sync.Once
	full     *Lexicon
)

// Full returns the complete built-in lexicon. The value is shared and must
// be treated as read-only.
func Full() *Lexicon {
	fullOnce.Do(func() {
		full = New(builtinEntries(), builtinTerms())
	})
	return full
}

// Lookup returns the entry ID whose forms contain value (after
// normalization), if any.
func (l *Lexicon) Lookup(value string) (string, bool) {
	id, ok := l.index[normalize(value)]
	return id, ok
}

// Canonical returns the canonical form for an entry ID, or "" if unknown.
func (l *Lexicon) Canonical(id string) string {
	for _, e := range l.entries {
		if e.ID == id {
			return e.Canonical
		}
	}
	return ""
}

// SynonymsOf returns all forms of the entry containing value, excluding
// value itself (normalized comparison). Returns nil when value is unknown.
func (l *Lexicon) SynonymsOf(value string) []string {
	id, ok := l.Lookup(value)
	if !ok {
		return nil
	}
	norm := normalize(value)
	var out []string
	for _, e := range l.entries {
		if e.ID != id {
			continue
		}
		for _, f := range e.Forms() {
			if normalize(f) != norm {
				out = append(out, f)
			}
		}
	}
	return out
}

// CanonicalToken maps an abbreviated token to its canonical token ("st" →
// "street"); returns the input unchanged when unknown.
func (l *Lexicon) CanonicalToken(tok string) string {
	if c, ok := l.terms[normalize(tok)]; ok {
		return c
	}
	return tok
}

// Entries returns the entry list (shared; read-only).
func (l *Lexicon) Entries() []Entry { return l.entries }

// Terms returns a copy of the token-level abbreviation pairs as
// (abbreviated token → canonical token).
func (l *Lexicon) Terms() map[string]string {
	return l.termsCopy()
}

// Len returns the number of entries.
func (l *Lexicon) Len() int { return len(l.entries) }

// Thin returns a copy of the lexicon with roughly 1-in-dropOneIn entries
// deterministically removed (by entry-ID hash). It models an embedder with
// partial world knowledge — the paper's Llama3 tier, which trails Mistral.
func (l *Lexicon) Thin(dropOneIn int) *Lexicon {
	if dropOneIn <= 0 {
		return l
	}
	kept := make([]Entry, 0, len(l.entries))
	for _, e := range l.entries {
		// Fixed salt so the dropped subset is stable and independent of any
		// other FNV use of the IDs.
		if strutil.FNV1a("drop:", e.ID)%uint32(dropOneIn) == 0 {
			continue
		}
		kept = append(kept, e)
	}
	return New(kept, l.termsCopy())
}

func (l *Lexicon) termsCopy() map[string]string {
	out := make(map[string]string, len(l.terms))
	for k, v := range l.terms {
		out[k] = v
	}
	return out
}

// IDs returns the sorted entry IDs (for deterministic iteration in tests
// and generators).
func (l *Lexicon) IDs() []string {
	out := make([]string, len(l.entries))
	for i, e := range l.entries {
		out[i] = e.ID
	}
	sort.Strings(out)
	return out
}

// EntriesWithPrefix returns entries whose ID has the given prefix (entry IDs
// are namespaced like "country/canada", "state/ny"). Used by generators to
// draw topic vocabularies.
func (l *Lexicon) EntriesWithPrefix(prefix string) []Entry {
	var out []Entry
	for _, e := range l.entries {
		if strings.HasPrefix(e.ID, prefix) {
			out = append(out, e)
		}
	}
	return out
}
