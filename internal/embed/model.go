package embed

import (
	"math"

	"fuzzyfd/internal/lexicon"
	"fuzzyfd/internal/strutil"
)

// Config selects the feature families a Model extracts and their weights.
// Surface weights apply per extracted feature; structural weights are
// *shares* of the surface feature mass (a share of 2 means the structural
// feature carries twice the L2 mass of all surface features combined), so
// their influence is independent of value length.
type Config struct {
	Dim int
	// Fold lowercases and whitespace-normalizes before feature extraction.
	// The real FastText is case-sensitive; the transformer tiers are not.
	Fold bool

	// Surface features.
	WholeWeight  float64 // the entire (normalized) value
	TokenWeight  float64 // each token
	NGramSizes   []int   // character n-gram sizes over each token
	NGramWeight  float64
	PrefixWeight float64 // token prefixes of length 2..4 (subword-ish)

	// Structural features (shares of surface mass).
	SkeletonShare float64 // consonant skeleton of the whole value
	TokenSetShare float64 // order-insensitive sorted token set
	AbbrevShare   float64 // initialism signature ("New York" ↔ "NY")
	PhoneticShare float64 // per-token Soundex key

	// Knowledge features.
	TermLexicon  *lexicon.Lexicon // token canonicalization ("univ"→"university")
	TermWeight   float64
	ValueLexicon *lexicon.Lexicon // whole-value entity lookup ("CA"→Canada)
	LexiconShare float64          // share of surface mass for the entity ID feature
}

// Model is a deterministic feature-hashing embedder configured by Config.
type Model struct {
	name  string
	cfg   Config
	cache *cache
}

// NewModel builds an embedder with the given name and configuration.
func NewModel(name string, cfg Config) *Model {
	if cfg.Dim <= 0 {
		cfg.Dim = 128
	}
	return &Model{name: name, cfg: cfg, cache: newCache()}
}

// Name implements Embedder.
func (m *Model) Name() string { return m.name }

// Dim implements Embedder.
func (m *Model) Dim() int { return m.cfg.Dim }

// Embed implements Embedder.
func (m *Model) Embed(value string) Vector {
	if v, ok := m.cache.get(value); ok {
		return v
	}
	v := m.vector(value)
	m.cache.put(value, v)
	return v
}

// vector extracts value's weighted features and hashes each into the
// vector as it is found: the surface features, then the structural ones,
// whose weights scale with the surface mass. A feature's family prefix is
// streamed into the hash ahead of its key, so no feature string is built
// and no feature list is kept.
func (m *Model) vector(value string) Vector {
	cfg := &m.cfg
	s := value
	if cfg.Fold {
		s = strutil.Fold(s)
	}

	v := make(Vector, cfg.Dim)
	var mass float64 // Σ w² over the surface features, in order
	add := func(prefix, key string, w float64) {
		if key != "" && w > 0 {
			hashInto(v, strutil.FNV1a(prefix, key), w)
			mass += w * w
		}
	}

	add("V:", s, cfg.WholeWeight)
	var toks []string
	if cfg.Fold {
		toks = strutil.Tokens(s)
	} else {
		toks = strutil.TokensCased(s)
	}
	for _, t := range toks {
		add("T:", t, cfg.TokenWeight)
		if cfg.TermLexicon != nil {
			if c := cfg.TermLexicon.CanonicalToken(t); c != t {
				// Emit the canonical token as a token feature too, so "Univ"
				// and "University" share the strong token-level feature.
				add("T:", c, cfg.TermWeight)
			}
		}
		for _, n := range cfg.NGramSizes {
			for _, g := range strutil.CharNGrams(t, n, true) {
				add("G:", g, cfg.NGramWeight)
			}
		}
		for _, p := range strutil.Prefixes(t, 2, 4) {
			add("P:", p, cfg.PrefixWeight)
		}
	}

	// Surface mass determines structural feature weights.
	base := math.Sqrt(mass)
	if base == 0 {
		base = 1
	}
	addStruct := func(prefix, key string, share float64) {
		if key != "" && share > 0 {
			hashInto(v, strutil.FNV1a(prefix, key), share*base)
		}
	}
	addStruct("K:", strutil.ConsonantSkeleton(s), cfg.SkeletonShare)
	addStruct("TS:", strutil.SortedTokenSet(s), cfg.TokenSetShare)
	addStruct("A:", strutil.AbbrevSignature(s), cfg.AbbrevShare)
	addStruct("S:", strutil.PhoneticKey(s), cfg.PhoneticShare)
	if cfg.ValueLexicon != nil && cfg.LexiconShare > 0 {
		if id, ok := cfg.ValueLexicon.Lookup(value); ok {
			addStruct("L:", id, cfg.LexiconShare)
		}
	}
	return normalize(v)
}
