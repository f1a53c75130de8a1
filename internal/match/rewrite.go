package match

import "strconv"

// RewriteMaps converts clusters into per-column substitution maps: for
// column k, maps[k][v] is the representative that should replace surface
// form v. This is the paper's final step before Full Disjunction — "we
// replace all of the values across the aligning columns with their
// respective representative value" — after which plain equi-join FD
// integrates the fuzzy matches.
//
// nCols must be the number of columns originally passed to Match.
func RewriteMaps(clusters []Cluster, nCols int) []map[string]string {
	maps := make([]map[string]string, nCols)
	for i := range maps {
		maps[i] = make(map[string]string)
	}
	for _, c := range clusters {
		for _, m := range c.Members {
			if m.Col >= 0 && m.Col < nCols {
				maps[m.Col][m.Value] = c.Rep
			}
		}
	}
	return maps
}

// Stats summarizes a clustering for reporting.
type Stats struct {
	Clusters      int // total clusters
	Singletons    int // clusters with a single member
	Merged        int // clusters with 2+ members
	Members       int // total members
	Rewrites      int // members whose surface form differs from the representative
	LargestSize   int
	MeanDistance  float64 // mean match-time distance over non-seed members
	DistanceCount int     // members contributing to MeanDistance — its weight when combining Stats

	// Assignment counters, summed over the sequential rounds. They describe
	// the run, not the clusters, so only MatchWithStats fills them;
	// Summarize leaves them zero.
	CandidatePairs   int // (cluster, value) pairs scored: every cell when dense, blocked candidates when sparse
	Edges            int // scored pairs under θ, the edges assignment chose from
	AssignComponents int // connected components of the sparse candidate graphs
	// LargestAssignComponent is the left × right size of the biggest such
	// component by cell count. Edges over the cells of all components is
	// the density a matrix-based solver would have paid for.
	LargestAssignComponent [2]int
}

// Summarize computes Stats for a clustering.
func Summarize(clusters []Cluster) Stats {
	var s Stats
	var distSum float64
	var distN int
	s.Clusters = len(clusters)
	for _, c := range clusters {
		n := len(c.Members)
		s.Members += n
		if n == 1 {
			s.Singletons++
		} else {
			s.Merged++
		}
		if n > s.LargestSize {
			s.LargestSize = n
		}
		for _, m := range c.Members {
			if m.Value != c.Rep {
				s.Rewrites++
			}
			if m.Dist > 0 {
				distSum += m.Dist
				distN++
			}
		}
	}
	if distN > 0 {
		s.MeanDistance = distSum / float64(distN)
		s.DistanceCount = distN
	}
	return s
}

// Pairs reduces a clustering to value-match pairs in "col:value" notation,
// for evaluation against a gold standard. Only cross-column pairs are
// produced (matching a value with itself in another column counts; a value
// never pairs with itself within its own column under clean-clean).
func Pairs(clusters []Cluster) [][2]string {
	var out [][2]string
	for _, c := range clusters {
		for i := 0; i < len(c.Members); i++ {
			for j := i + 1; j < len(c.Members); j++ {
				a := c.Members[i]
				b := c.Members[j]
				out = append(out, [2]string{memberID(a), memberID(b)})
			}
		}
	}
	return out
}

func memberID(m Member) string {
	return strconv.Itoa(m.Col) + ":" + m.Value
}
