// Package align determines which columns across an integration set should
// be integrated together — ALITE's holistic schema matching step (after Su
// et al. 2006), operating on column-content embeddings because data lake
// headers are missing, inconsistent, or unreliable.
//
// Each column is embedded as the mean of its value embeddings (optionally
// blended with a header embedding); columns from different tables whose
// embeddings are similar enough are clustered, under the hard constraint
// that two columns of the same table never align with each other. The
// resulting clusters define the integrated schema handed to Full
// Disjunction.
package align

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/strutil"
	"fuzzyfd/internal/table"
)

// DefaultThreshold is the minimum cosine similarity for two columns to
// align. Column-mean embeddings concentrate, so this is stricter than the
// value-level matching threshold.
const DefaultThreshold = 0.55

// DefaultSampleSize bounds how many distinct values are embedded per
// column.
const DefaultSampleSize = 64

// ErrNoEmbedder is returned when an Aligner is used without an embedder.
var ErrNoEmbedder = errors.New("align: nil embedder")

// ColumnRef identifies a column: table index in the integration set and
// column index within that table.
type ColumnRef struct {
	Table, Col int
}

// Result is a column alignment: clusters of columns (one output column
// each) with elected names.
type Result struct {
	Clusters [][]ColumnRef
	Names    []string
}

// Aligner clusters columns across tables.
type Aligner struct {
	Emb embed.Embedder
	// UseHeaders blends a header embedding into each column embedding.
	// Disable when headers are known to be garbage.
	UseHeaders bool
}

// Align clusters the columns of the integration set.
func (a *Aligner) Align(tables []*table.Table) (Result, error) {
	if a.Emb == nil {
		return Result{}, ErrNoEmbedder
	}

	type colInfo struct {
		ref  ColumnRef
		vec  embed.Vector
		kind table.Kind
		name string
	}
	var cols []colInfo
	for ti, t := range tables {
		for ci := range t.Columns {
			stats := table.InferColumn(t, ci)
			cols = append(cols, colInfo{
				ref:  ColumnRef{Table: ti, Col: ci},
				vec:  a.columnVector(t, ci),
				kind: stats.Kind,
				name: t.Columns[ci],
			})
		}
	}

	// Score all cross-table pairs.
	type scored struct {
		i, j int
		sim  float64
	}
	var pairs []scored
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			if cols[i].ref.Table == cols[j].ref.Table {
				continue
			}
			if !table.KindsCompatible(cols[i].kind, cols[j].kind) {
				continue
			}
			sim := 1 - embed.CosineDistance(cols[i].vec, cols[j].vec)
			if sim >= DefaultThreshold {
				pairs = append(pairs, scored{i: i, j: j, sim: sim})
			}
		}
	}
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x].sim != pairs[y].sim {
			return pairs[x].sim > pairs[y].sim
		}
		if pairs[x].i != pairs[y].i {
			return pairs[x].i < pairs[y].i
		}
		return pairs[x].j < pairs[y].j
	})

	// Greedy agglomeration with the one-column-per-table constraint.
	parent := make([]int, len(cols))
	tablesIn := make([]map[int]bool, len(cols))
	for i := range parent {
		parent[i] = i
		tablesIn[i] = map[int]bool{cols[i].ref.Table: true}
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, p := range pairs {
		ri, rj := find(p.i), find(p.j)
		if ri == rj {
			continue
		}
		conflict := false
		for t := range tablesIn[rj] {
			if tablesIn[ri][t] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		parent[rj] = ri
		for t := range tablesIn[rj] {
			tablesIn[ri][t] = true
		}
	}

	// Materialize clusters in deterministic (first member) order.
	groups := make(map[int][]int)
	for i := range cols {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)

	var res Result
	usedNames := make(map[string]int)
	for _, r := range roots {
		members := groups[r]
		cluster := make([]ColumnRef, len(members))
		nameVotes := make(map[string]int)
		for k, i := range members {
			cluster[k] = cols[i].ref
			if cols[i].name != "" {
				nameVotes[strutil.Fold(cols[i].name)]++
			}
		}
		res.Clusters = append(res.Clusters, cluster)
		res.Names = append(res.Names, electName(nameVotes, usedNames, len(res.Names)))
	}
	return res, nil
}

// columnVector embeds a column as the normalized mean of its sampled
// distinct value embeddings, blended with the header embedding when
// enabled.
func (a *Aligner) columnVector(t *table.Table, ci int) embed.Vector {
	vals, counts := t.DistinctColumnValues(ci)
	if len(vals) > DefaultSampleSize {
		// Prefer frequent values: sort by count descending, then value.
		type vc struct {
			v string
			c int
		}
		byCount := make([]vc, len(vals))
		for i := range vals {
			byCount[i] = vc{v: vals[i], c: counts[i]}
		}
		sort.Slice(byCount, func(i, j int) bool {
			if byCount[i].c != byCount[j].c {
				return byCount[i].c > byCount[j].c
			}
			return byCount[i].v < byCount[j].v
		})
		vals = vals[:0]
		for i := 0; i < DefaultSampleSize; i++ {
			vals = append(vals, byCount[i].v)
		}
	}

	acc := make([]float64, a.Emb.Dim())
	for _, v := range vals {
		for i, x := range a.Emb.Embed(v) {
			acc[i] += float64(x)
		}
	}
	if a.UseHeaders && t.Columns[ci] != "" {
		// The header counts as strongly as a handful of values.
		hv := a.Emb.Embed(strutil.Fold(t.Columns[ci]))
		w := float64(len(vals)) * 0.25
		if w < 1 {
			w = 1
		}
		for i, x := range hv {
			acc[i] += w * float64(x)
		}
	}
	var norm float64
	for _, x := range acc {
		norm += x * x
	}
	out := make(embed.Vector, len(acc))
	if norm == 0 {
		return out
	}
	inv := 1 / math.Sqrt(norm)
	for i, x := range acc {
		out[i] = float32(x * inv)
	}
	return out
}

// electName picks a cluster's output column name by majority over folded
// headers, deduplicating collisions with a numeric suffix.
func electName(votes map[string]int, used map[string]int, idx int) string {
	best := ""
	bestN := 0
	keys := make([]string, 0, len(votes))
	for k := range votes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if votes[k] > bestN {
			best = k
			bestN = votes[k]
		}
	}
	if best == "" {
		best = fmt.Sprintf("col%d", idx)
	}
	if n := used[best]; n > 0 {
		used[best] = n + 1
		return fmt.Sprintf("%s_%d", best, n+1)
	}
	used[best] = 1
	return best
}

// Schema converts the alignment into the fd.Schema consumed by Full
// Disjunction.
func (r Result) Schema(tables []*table.Table) fd.Schema {
	s := fd.Schema{Columns: r.Names}
	s.Mapping = make([][]int, len(tables))
	for ti, t := range tables {
		s.Mapping[ti] = make([]int, len(t.Columns))
		for i := range s.Mapping[ti] {
			s.Mapping[ti][i] = -1
		}
	}
	for k, cluster := range r.Clusters {
		for _, ref := range cluster {
			s.Mapping[ref.Table][ref.Col] = k
		}
	}
	return s
}
