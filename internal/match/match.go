// Package match implements the paper's Match Values component (§2.2): given
// a set of aligning columns, it finds disjoint sets of values that denote
// the same real-world value (Definition 2) and elects a representative for
// each set.
//
// The algorithm follows the paper exactly: values of the first two columns
// are matched by minimum-cost bipartite assignment over embedding cosine
// distances (edges at or above the threshold θ are forbidden); matched
// values merge into a combined column whose representative is the most
// frequent surface form across all aligning columns (ties prefer the
// earlier table); the combined column is then matched against the next
// column, and so on until every column is consumed.
//
// Each round is one thresholded minimum-cost assignment (the paper's scipy
// linear_sum_assignment), solved by assign.MatchSparse over the round's
// edges under θ. The round's size picks only which pairs are scored: a
// round whose representatives times values fit under DefaultDenseLimit
// scores every pair; a larger one scores only candidate pairs sharing a
// blocking key, so its cost follows the number of candidates, not the
// product of the column sizes. Blocking is a heuristic, not a sound
// filter: a blocked round's edges are a subset of the dense round's edges
// under θ, at the same costs, but two values can be within θ without
// sharing any key, so a blocked round can match fewer values, and
// different ones, than a dense round would.
//
// A Matcher's Memo lets consecutive calls share each value's record and
// replay every round whose exact inputs they met before (see Memo). One
// Memo serves one call at a time, which core.Session's runMu ensures; a
// Matcher without one gives each call a fresh Memo, so all take one path.
package match

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"fuzzyfd/internal/assign"
	"fuzzyfd/internal/embed"
)

// DefaultTheta is the paper's matching threshold ("we report the results
// with the matching threshold of 0.7, which gives the best results").
const DefaultTheta = 0.7

// DefaultDenseLimit bounds |A|·|B| for a round that scores every pair;
// larger rounds are blocked.
const DefaultDenseLimit = 200_000

// ErrNoEmbedder is returned when a Matcher is used without an embedder.
var ErrNoEmbedder = errors.New("match: nil embedder")

// Column is one aligning column's distinct values with occurrence counts.
// Following the clean-clean assumption (§2.1), values within a column are
// distinct and internally consistent; Count[i] is how many cells of the
// original column hold Values[i], which drives representative election.
type Column struct {
	Name   string // table/column label, for diagnostics
	Values []string
	Counts []int
}

// NewColumn dedupes raw cell values into a Column, preserving first-seen
// order and accumulating counts.
func NewColumn(name string, cells []string) Column {
	col := Column{Name: name}
	seen := make(map[string]int)
	for _, v := range cells {
		if at, ok := seen[v]; ok {
			col.Counts[at]++
			continue
		}
		seen[v] = len(col.Values)
		col.Values = append(col.Values, v)
		col.Counts = append(col.Counts, 1)
	}
	return col
}

// DistinctValues returns the distinct values across the columns, in
// first-seen order — the warm list for pre-embedding a column set (see
// embed.WarmContext). Shared by the pipeline's match stage and MatchValues so
// the two paths cannot drift.
func DistinctValues(cols []Column) []string {
	var out []string
	seen := make(map[string]bool)
	for _, c := range cols {
		for _, v := range c.Values {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Member is one value of a cluster, identified by the column it came from.
type Member struct {
	Col   int    // index into the matched column set
	Value string // the surface form in that column
	// Dist is the cosine distance to the cluster representative at the
	// moment this member was matched (0 for the member that seeded the
	// cluster). The algorithm guarantees Dist < θ; the final representative
	// may drift, so this — not the distance to the final representative —
	// is the Definition 2 invariant the implementation enforces.
	Dist float64
}

// Cluster is one disjoint set of matched values with its elected
// representative.
type Cluster struct {
	Rep     string
	Members []Member
}

// Options configures a Matcher.
type Options struct {
	// Theta is the matching threshold; pairs at distance ≥ Theta are never
	// matched. Zero means DefaultTheta.
	Theta float64
}

func (o Options) theta() float64 {
	if o.Theta == 0 {
		return DefaultTheta
	}
	return o.Theta
}

// Scorer measures the dissimilarity of two cell values in [0, 1]. The
// default scorer is embedding cosine distance (the paper's method);
// alternative scorers implement the related-work baselines (q-gram
// similarity joins, Zhu et al. 2017).
type Scorer interface {
	// Name identifies the scorer for diagnostics.
	Name() string
	// Distance returns the dissimilarity of a and b in [0, 1]; equal
	// strings are 0.
	Distance(a, b string) float64
}

// embedScorer adapts an Embedder to Scorer. A match call scores it from
// each value's vector, embedded once per call (run.distance); Distance
// embeds both values on every call, so a caller that uses it directly on
// many pairs fronts the embedder with a ValueCache (embed.Cached).
type embedScorer struct{ e embed.Embedder }

func (s embedScorer) Name() string { return s.e.Name() }
func (s embedScorer) Distance(a, b string) float64 {
	return embed.Distance(s.e, a, b)
}
func (s embedScorer) vector(v string) embed.Vector { return s.e.Embed(v) }

// vectorScorer is a Scorer whose Distance is embed.Distance over per-value
// vectors, which a match call resolves once per value.
type vectorScorer interface {
	vector(v string) embed.Vector
}

// EmbedderScorer wraps an embedding model as a Scorer.
func EmbedderScorer(e embed.Embedder) Scorer { return embedScorer{e: e} }

// Matcher runs the Match Values component with a fixed scorer and options.
// The zero value is not usable; set Emb or Scorer (Scorer wins when both
// are set).
type Matcher struct {
	Emb    embed.Embedder
	Scorer Scorer
	Opts   Options
	// Memo, when set, is shared by the calls it serves (one at a time);
	// nil gives each call a fresh one.
	Memo *Memo

	denseLimit int // DefaultDenseLimit when zero; tests pin a path with it
}

func (m *Matcher) scorer() Scorer {
	if m.Scorer != nil {
		return m.Scorer
	}
	if m.Emb != nil {
		return EmbedderScorer(m.Emb)
	}
	return nil
}

// working is the internal cluster state during sequential matching.
type working struct {
	members []Member
	rep     string
}

// Match clusters the values of the aligning columns. Columns are consumed
// in input order, mirroring the paper's sequential combined-column process.
// It also returns the clustering's Stats: Summarize of the clusters plus
// the assignment counters, which describe the run and cannot be recovered
// from the clusters afterwards. The context is checked before every
// sequential assignment round (one per column consumed), so a cancellation
// or deadline stops the matching between rounds and returns the context
// error unwrapped — callers layer their own cancellation marker on top.
func (m *Matcher) Match(ctx context.Context, cols []Column) ([]Cluster, Stats, error) {
	theta := m.Opts.theta()
	return m.match(ctx, cols, func([]string, []string) float64 { return theta })
}

// thetaFunc chooses the matching threshold for one sequential round, given
// the current representatives and the next column's values. Match uses a
// constant; MatchAutoTuned plugs in the tuner.
type thetaFunc func(reps, values []string) float64

func (m *Matcher) match(ctx context.Context, cols []Column, thetaFor thetaFunc) ([]Cluster, Stats, error) {
	// Everything a call accumulates lives in r and its memo, never on the
	// Matcher itself, which is shared across calls and goroutines.
	r := newRun(m.scorer(), m.Memo)
	if r.scorer == nil {
		return nil, Stats{}, ErrNoEmbedder
	}
	r.denseLimit = cmp.Or(m.denseLimit, DefaultDenseLimit)
	for i, c := range cols {
		if len(c.Values) != len(c.Counts) {
			return nil, Stats{}, fmt.Errorf("match: column %d (%s): %d values but %d counts", i, c.Name, len(c.Values), len(c.Counts))
		}
	}
	if len(cols) == 0 {
		return nil, Stats{}, nil
	}

	// Global frequency of each surface form across all aligning columns —
	// the paper's "appears most frequently in the list of all values from
	// the aligning columns".
	freq := make(map[string]int)
	for _, c := range cols {
		for i, v := range c.Values {
			freq[v] += c.Counts[i]
		}
	}

	// Seed clusters from the first column.
	clusters := make([]*working, 0, len(cols[0].Values))
	for _, v := range cols[0].Values {
		clusters = append(clusters, &working{
			members: []Member{{Col: 0, Value: v}},
			rep:     v,
		})
	}

	for k := 1; k < len(cols); k++ {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		reps := make([]string, len(clusters))
		for i, c := range clusters {
			reps[i] = c.rep
		}
		theta := thetaFor(reps, cols[k].Values)
		pairs := r.round(reps, cols[k].Values, theta)
		matched := make(map[int]bool, len(pairs)) // col-k value index -> merged
		for _, p := range pairs {
			clusters[p.A].members = append(clusters[p.A].members, Member{Col: k, Value: cols[k].Values[p.B], Dist: p.Cost})
			matched[p.B] = true
		}
		for j, v := range cols[k].Values {
			if matched[j] {
				continue
			}
			clusters = append(clusters, &working{
				members: []Member{{Col: k, Value: v}},
				rep:     v,
			})
		}
		// Re-elect representatives for the combined column.
		for _, c := range clusters {
			m.elect(c, freq)
		}
	}

	out := make([]Cluster, len(clusters))
	for i, c := range clusters {
		out[i] = Cluster{Rep: c.rep, Members: c.members}
	}
	stats := Summarize(out)
	stats.CandidatePairs, stats.Edges = r.stats.CandidatePairs, r.stats.Edges
	stats.AssignComponents, stats.LargestAssignComponent = r.stats.AssignComponents, r.stats.LargestAssignComponent
	stats.Rounds, stats.RoundsReplayed = r.stats.Rounds, r.stats.RoundsReplayed
	return out, stats, nil
}

// elect picks the cluster representative: highest global frequency, ties
// broken by the earliest column (the paper keeps the first table's value),
// then lexicographically for full determinism.
func (m *Matcher) elect(c *working, freq map[string]int) {
	best := -1
	for i, mem := range c.members {
		if best < 0 {
			best = i
			continue
		}
		b := c.members[best]
		switch {
		case freq[mem.Value] > freq[b.Value]:
			best = i
		case freq[mem.Value] < freq[b.Value]:
		case mem.Col < b.Col:
			best = i
		case mem.Col > b.Col:
		case mem.Value < b.Value:
			best = i
		}
	}
	c.rep = c.members[best].Value
}

// run is the state of one match call: its scorer, its memo, and the
// assignment counters of Stats.
type run struct {
	*Memo
	scorer     Scorer
	vectors    vectorScorer // scorer, when it scores from vectors; else nil
	denseLimit int
	stats      Stats
}

// value is what a memo knows about one distinct value: its vector and
// support when the scorer scores from vectors, and its blocking keys once
// the value has been blocked. All of it depends on the value alone, and
// representatives are values of earlier columns, so each distinct value is
// resolved once per memo, however many rounds and pairs it takes part in.
type value struct {
	text string
	vec  embed.Vector
	sup  []uint64 // embed.Support(vec)
	keys []int32  // interned blockingKeys, duplicates kept; nil until blocked
}

// newRun starts a call on memo, or on a fresh memo when it is nil.
func newRun(s Scorer, memo *Memo) *run {
	if memo == nil {
		memo = NewMemo()
	}
	r := &run{Memo: memo, scorer: s}
	r.vectors, _ = s.(vectorScorer)
	return r
}

// record returns v's record, resolving its vector on first sight.
func (r *run) record(v string) *value {
	rec, ok := r.values[v]
	if !ok {
		rec = &value{text: v}
		if r.vectors != nil {
			rec.vec = r.vectors.vector(v)
			rec.sup = embed.Support(rec.vec)
		}
		r.values[v] = rec
	}
	return rec
}

// records returns the record of each value.
func (r *run) records(vs []string) []*value {
	out := make([]*value, len(vs))
	for i, v := range vs {
		out[i] = r.record(v)
	}
	return out
}

// distance scores a pair: by the support kernel when the scorer scores from
// vectors, else by Scorer.Distance. The kernel is embed.Distance bit for
// bit: equal values are 0 even with zero vectors, and SupportDistance
// equals CosineDistance.
func (r *run) distance(a, b *value) float64 {
	if r.vectors == nil {
		return r.scorer.Distance(a.text, b.text)
	}
	if a.text == b.text {
		return 0
	}
	return embed.SupportDistance(a.vec, b.vec, a.sup, b.sup)
}

// round returns the pairs of one assignment round: replayed from the memo
// when a round with the same inputs ran since its Sweep before last, else
// assigned and remembered. A replayed round adds nothing to the assignment
// counters, which count work done.
func (r *run) round(reps, values []string, theta float64) []assign.Pair {
	r.stats.Rounds++
	key := r.roundKey(reps, values, theta, r.denseLimit)
	if pairs, ok := r.replay(key); ok {
		r.stats.RoundsReplayed++
		return pairs
	}
	pairs := r.assignRound(reps, values, theta)
	r.rounds[key] = pairs
	return pairs
}

// assignRound matches the current clusters' representatives (side A)
// against the next column's values (side B), returning assignment pairs
// under θ. The round's size picks only the candidate pairs it scores:
// every pair up to the dense limit, blocked candidates beyond it.
func (r *run) assignRound(reps, values []string, theta float64) []assign.Pair {
	var edges []assign.Edge
	if len(reps)*len(values) <= r.denseLimit {
		edges = r.denseEdges(reps, values, theta)
	} else {
		edges = r.blockedEdges(reps, values, theta)
	}
	pairs, shape := assign.MatchSparse(len(reps), len(values), edges)
	r.stats.AssignComponents += shape.Components
	if big := r.stats.LargestAssignComponent; shape.LargestLeft*shape.LargestRight > big[0]*big[1] {
		r.stats.LargestAssignComponent = [2]int{shape.LargestLeft, shape.LargestRight}
	}
	return pairs
}

// denseEdges scores every (cluster, value) pair, keeping edges under θ.
func (r *run) denseEdges(reps, values []string, theta float64) []assign.Edge {
	var edges []assign.Edge
	a, b := r.records(reps), r.records(values)
	for i, ra := range a {
		for j, rb := range b {
			if d := r.distance(ra, rb); d < theta {
				edges = append(edges, assign.Edge{A: i, B: j, Cost: d})
			}
		}
	}
	r.stats.CandidatePairs += len(a) * len(b)
	r.stats.Edges += len(edges)
	return edges
}
