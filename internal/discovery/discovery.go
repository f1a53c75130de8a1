// Package discovery implements the table-search step that precedes
// integration in the paper's pipeline (§1): given a query table and a
// corpus of data lake tables, rank candidates that are unionable (their
// columns align with the query's — table union search, Nargesian et al.
// 2018) or joinable (some column's values overlap a query column's — JOSIE,
// Zhu et al. 2019). The discovered set is exactly what Fuzzy Full
// Disjunction then integrates.
//
// Scores are content-based: unionability averages the best column-embedding
// similarity per query column; joinability takes the best set-containment
// of a query column's values in a candidate column. Both are intentionally
// simple, laptop-scale equivalents of the cited systems.
package discovery

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"

	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/lexicon"
	"fuzzyfd/internal/strutil"
	"fuzzyfd/internal/table"
)

// Kind is the search mode a candidate was found under.
type Kind int

const (
	// Unionable candidates share the query's schema semantics.
	Unionable Kind = iota
	// Joinable candidates share values with some query column.
	Joinable
)

// String names the kind.
func (k Kind) String() string {
	if k == Joinable {
		return "joinable"
	}
	return "unionable"
}

// Candidate is one ranked search result.
type Candidate struct {
	Table *table.Table
	Score float64
	Kind  Kind
	// QueryColumn and TableColumn identify the best-matching column pair
	// (join search) or are -1 (union search).
	QueryColumn int
	TableColumn int
}

// ErrNoEmbedder is returned when a Searcher has no embedder.
var ErrNoEmbedder = errors.New("discovery: nil embedder")

// Searcher ranks corpus tables against a query table.
type Searcher struct {
	Emb embed.Embedder
	// MinScore filters candidates below this score. The default is
	// deliberately permissive (0.2): the value inconsistencies that
	// motivate fuzzy integration also depress exact-overlap join scores,
	// so borderline candidates are worth surfacing.
	MinScore float64
	// SampleSize bounds per-column work (default 64 distinct values).
	SampleSize int
}

func (s *Searcher) minScore() float64 {
	if s.MinScore == 0 {
		return 0.2
	}
	return s.MinScore
}

func (s *Searcher) sampleSize() int {
	if s.SampleSize <= 0 {
		return 64
	}
	return s.SampleSize
}

// UnionablesContext returns the top-k corpus tables ranked by unionability
// with the query: the mean, over the query's columns, of the best cosine
// similarity to any candidate column (matching kinds only). The context is
// checked once per corpus table so large corpora cancel promptly.
func (s *Searcher) UnionablesContext(ctx context.Context, query *table.Table, corpus []*table.Table, k int) ([]Candidate, error) {
	if s.Emb == nil {
		return nil, ErrNoEmbedder
	}
	qvecs, qkinds := s.columnProfiles(query)
	var out []Candidate
	for _, cand := range corpus {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cand == query {
			continue
		}
		cvecs, ckinds := s.columnProfiles(cand)
		if len(qvecs) == 0 || len(cvecs) == 0 {
			continue
		}
		total := 0.0
		for qi := range qvecs {
			best := 0.0
			for ci := range cvecs {
				if !table.KindsCompatible(qkinds[qi], ckinds[ci]) {
					continue
				}
				if sim := 1 - embed.CosineDistance(qvecs[qi], cvecs[ci]); sim > best {
					best = sim
				}
			}
			total += best
		}
		score := total / float64(len(qvecs))
		if score >= s.minScore() {
			out = append(out, Candidate{Table: cand, Score: score, Kind: Unionable, QueryColumn: -1, TableColumn: -1})
		}
	}
	return topK(out, k), nil
}

// JoinablesContext returns the top-k corpus tables ranked by the best value
// containment of some query column in some candidate column:
// |Q ∩ C| / |Q| over folded distinct values. The context is checked once
// per corpus table so large corpora cancel promptly.
func (s *Searcher) JoinablesContext(ctx context.Context, query *table.Table, corpus []*table.Table, k int) ([]Candidate, error) {
	if s.Emb == nil {
		return nil, ErrNoEmbedder
	}
	qsets := s.valueSets(query)
	var out []Candidate
	for _, cand := range corpus {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cand == query {
			continue
		}
		csets := s.valueSets(cand)
		best := Candidate{Table: cand, Kind: Joinable, QueryColumn: -1, TableColumn: -1}
		for qi, qs := range qsets {
			if len(qs) == 0 {
				continue
			}
			for ci, cs := range csets {
				inter := 0
				for v := range qs {
					if cs[v] {
						inter++
					}
				}
				score := float64(inter) / float64(len(qs))
				if score > best.Score {
					best.Score = score
					best.QueryColumn = qi
					best.TableColumn = ci
				}
			}
		}
		if best.Score >= s.minScore() {
			out = append(out, best)
		}
	}
	return topK(out, k), nil
}

// columnProfiles embeds every column of t (mean of sampled distinct value
// embeddings, plus domain features) and infers its kind.
//
// The domain features make semantic-type similarity visible without shared
// values: when a column's values resolve to a knowledge-lexicon namespace
// ("country/", "currency/", ...), a pseudo-value embedding of that
// namespace is blended in, weighted by the share of resolving values. Two
// country columns with disjoint countries then still profile as the same
// semantic type — the role real LLM column embeddings play in the cited
// union-search systems.
func (s *Searcher) columnProfiles(t *table.Table) ([]embed.Vector, []table.Kind) {
	lex := lexicon.Full()
	vecs := make([]embed.Vector, t.NumCols())
	kinds := make([]table.Kind, t.NumCols())
	for ci := range t.Columns {
		kinds[ci] = table.InferColumn(t, ci).Kind
		vals, _ := t.DistinctColumnValues(ci)
		if len(vals) > s.sampleSize() {
			vals = vals[:s.sampleSize()]
		}
		acc := make([]float64, s.Emb.Dim())
		domains := make(map[string]int)
		for _, v := range vals {
			for i, x := range s.Emb.Embed(v) {
				acc[i] += float64(x)
			}
			if id, ok := lex.Lookup(v); ok {
				if slash := strings.IndexByte(id, '/'); slash > 0 {
					domains[id[:slash+1]]++
				}
			}
		}
		for ns, count := range domains {
			w := 2 * float64(count)
			for i, x := range s.Emb.Embed("⟨domain:" + ns + "⟩") {
				acc[i] += w * float64(x)
			}
		}
		vec := make(embed.Vector, len(acc))
		var norm float64
		for _, x := range acc {
			norm += x * x
		}
		if norm > 0 {
			inv := 1 / math.Sqrt(norm)
			for i, x := range acc {
				vec[i] = float32(x * inv)
			}
		}
		vecs[ci] = vec
	}
	return vecs, kinds
}

// valueSets returns each column's folded distinct value set (sampled).
func (s *Searcher) valueSets(t *table.Table) []map[string]bool {
	out := make([]map[string]bool, t.NumCols())
	for ci := range t.Columns {
		vals, _ := t.DistinctColumnValues(ci)
		if len(vals) > s.sampleSize()*4 {
			vals = vals[:s.sampleSize()*4]
		}
		set := make(map[string]bool, len(vals))
		for _, v := range vals {
			set[strutil.Fold(v)] = true
		}
		out[ci] = set
	}
	return out
}

func topK(cands []Candidate, k int) []Candidate {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Table.Name < cands[j].Table.Name
	})
	if k > 0 && len(cands) > k {
		cands = cands[:k]
	}
	return cands
}
