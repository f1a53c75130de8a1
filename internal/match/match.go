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
// Two assignment paths produce matchings of equal cardinality and cost: a
// dense solver for small column pairs (the paper's scipy
// linear_sum_assignment) and a blocked sparse solver for data-lake-scale
// columns, which restricts the assignment to candidate pairs sharing a
// blocking key (sound for hashed feature embeddings: cosine similarity
// requires a shared feature) and whose cost follows the number of
// candidates, not the product of the column sizes.
package match

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"fuzzyfd/internal/assign"
	"fuzzyfd/internal/embed"
)

// DefaultTheta is the paper's matching threshold ("we report the results
// with the matching threshold of 0.7, which gives the best results").
const DefaultTheta = 0.7

// Mode selects the assignment strategy.
type Mode int

const (
	// ModeAuto uses dense assignment for small column pairs and blocked
	// sparse assignment beyond DenseLimit.
	ModeAuto Mode = iota
	// ModeDense always builds the full cost matrix.
	ModeDense
	// ModeSparse always uses the blocking index.
	ModeSparse
	// ModeGreedy uses the greedy heuristic over blocked candidates
	// (ablation baseline; not an exact assignment).
	ModeGreedy
)

// DefaultDenseLimit bounds |A|·|B| for the dense path under ModeAuto.
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
// embed.Warm). Shared by the pipeline's match stage and MatchValues so
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
	// Mode selects the assignment strategy (default ModeAuto).
	Mode Mode
	// DenseLimit overrides DefaultDenseLimit under ModeAuto.
	DenseLimit int
}

func (o Options) theta() float64 {
	if o.Theta == 0 {
		return DefaultTheta
	}
	return o.Theta
}

func (o Options) denseLimit() int {
	if o.DenseLimit <= 0 {
		return DefaultDenseLimit
	}
	return o.DenseLimit
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

// embedScorer adapts an Embedder to Scorer. The embedder's internal
// value→vector cache makes repeated Distance calls cheap.
type embedScorer struct{ e embed.Embedder }

func (s embedScorer) Name() string { return s.e.Name() }
func (s embedScorer) Distance(a, b string) float64 {
	return embed.Distance(s.e, a, b)
}
func (s embedScorer) vector(v string) embed.Vector { return s.e.Embed(v) }

// vectorScorer is a Scorer whose Distance is embed.Distance over per-value
// vectors. The match paths resolve each value's vector and support once per
// call and score pairs with the support kernel (pointDistance); other
// scorers keep calling Distance per pair.
type vectorScorer interface {
	vector(v string) embed.Vector
}

// point is a value's vector with its support (embed.Support).
type point struct {
	vec embed.Vector
	sup []uint64
}

func pointOf(vs vectorScorer, v string) point {
	vec := vs.vector(v)
	return point{vec: vec, sup: embed.Support(vec)}
}

// points resolves each value to its point.
func points(values []string, resolve func(string) point) []point {
	out := make([]point, len(values))
	for i, v := range values {
		out[i] = resolve(v)
	}
	return out
}

// pointDistance is embed.Distance for values a and b at points pa and pb,
// bit for bit: equal values are 0 even with zero vectors, and
// SupportDistance equals CosineDistance.
func pointDistance(a, b string, pa, pb point) float64 {
	if a == b {
		return 0
	}
	return embed.SupportDistance(pa.vec, pb.vec, pa.sup, pb.sup)
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
func (m *Matcher) Match(cols []Column) ([]Cluster, error) {
	return m.MatchContext(context.Background(), cols)
}

// MatchContext is Match under a context: the context is checked before
// every sequential assignment round (one per column consumed), so a
// cancellation or deadline stops the matching between rounds and returns
// the context error unwrapped — callers layer their own cancellation
// marker on top.
func (m *Matcher) MatchContext(ctx context.Context, cols []Column) ([]Cluster, error) {
	clusters, _, err := m.MatchWithStats(ctx, cols)
	return clusters, err
}

// MatchWithStats is MatchContext that also returns the clustering's Stats:
// Summarize of the clusters plus the assignment counters, which describe
// the run and cannot be recovered from the clusters afterwards.
func (m *Matcher) MatchWithStats(ctx context.Context, cols []Column) ([]Cluster, Stats, error) {
	theta := m.Opts.theta()
	return m.match(ctx, cols, func(int, []string, []string) float64 { return theta })
}

// thetaFunc chooses the matching threshold for one sequential round, given
// the round index, the current representatives, and the next column's
// values. Match uses a constant; MatchAutoTuned plugs in the tuner.
type thetaFunc func(round int, reps, values []string) float64

func (m *Matcher) match(ctx context.Context, cols []Column, thetaFor thetaFunc) ([]Cluster, Stats, error) {
	// Everything a call accumulates lives in r, never on the Matcher, which
	// is shared across calls and goroutines.
	r := &run{opts: m.Opts, scorer: m.scorer()}
	if r.scorer == nil {
		return nil, Stats{}, ErrNoEmbedder
	}
	r.vectors, _ = r.scorer.(vectorScorer)
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
		theta := thetaFor(k, reps, cols[k].Values)
		pairs, err := r.assignRound(reps, cols[k].Values, theta)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("match: column %d (%s): %w", k, cols[k].Name, err)
		}
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

// run is the state of one match call: its scorer and options, the per-value
// memos, and the assignment counters of Stats.
type run struct {
	opts    Options
	scorer  Scorer
	vectors vectorScorer // scorer, when it scores from vectors; else nil
	points  map[string]point
	blocker blocker
	stats   Stats
}

// point resolves v's vector and support once per call: representatives are
// values of earlier columns, so a value takes part in many rounds.
func (r *run) point(v string) point {
	p, ok := r.points[v]
	if !ok {
		if r.points == nil {
			r.points = make(map[string]point)
		}
		p = pointOf(r.vectors, v)
		r.points[v] = p
	}
	return p
}

// assignRound matches the current clusters' representatives (side A)
// against the next column's values (side B), returning assignment pairs
// under θ.
func (r *run) assignRound(reps, values []string, theta float64) ([]assign.Pair, error) {
	mode := r.opts.Mode
	if mode == ModeAuto {
		if len(reps)*len(values) <= r.opts.denseLimit() {
			mode = ModeDense
		} else {
			mode = ModeSparse
		}
	}
	switch mode {
	case ModeDense:
		return r.assignDense(reps, values, theta)
	case ModeSparse:
		pairs, shape := assign.MatchSparse(len(reps), len(values), r.blockedEdges(reps, values, theta))
		r.stats.AssignComponents += shape.Components
		if big := r.stats.LargestAssignComponent; shape.LargestLeft*shape.LargestRight > big[0]*big[1] {
			r.stats.LargestAssignComponent = [2]int{shape.LargestLeft, shape.LargestRight}
		}
		return pairs, nil
	case ModeGreedy:
		return assign.Greedy(r.blockedEdges(reps, values, theta)), nil
	default:
		return nil, fmt.Errorf("unknown mode %d", mode)
	}
}

func (r *run) assignDense(reps, values []string, theta float64) ([]assign.Pair, error) {
	if len(reps) == 0 || len(values) == 0 {
		return nil, nil
	}
	// A vector scorer's points are resolved once per value, not per pair.
	var pa, pb []point
	if r.vectors != nil {
		pa, pb = points(reps, r.point), points(values, r.point)
	}
	cost := make([][]float64, len(reps))
	for i, rep := range reps {
		row := make([]float64, len(values))
		for j, v := range values {
			var d float64
			if r.vectors != nil {
				d = pointDistance(rep, v, pa[i], pb[j])
			} else {
				d = r.scorer.Distance(rep, v)
			}
			if d >= theta {
				d = assign.Forbidden
			} else {
				r.stats.Edges++
			}
			row[j] = d
		}
		cost[i] = row
	}
	r.stats.CandidatePairs += len(reps) * len(values)
	rowToCol, _, err := assign.Solve(cost)
	if err != nil {
		return nil, err
	}
	var pairs []assign.Pair
	for i, j := range rowToCol {
		if j >= 0 {
			pairs = append(pairs, assign.Pair{A: i, B: j, Cost: cost[i][j]})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].A < pairs[b].A })
	return pairs, nil
}
