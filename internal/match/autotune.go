package match

import (
	"context"
	"sort"
)

// This file implements the unsupervised threshold selection of the
// AutoFuzzyJoin line of work (Li, Cheng, Chu, He, Chaudhuri: SIGMOD 2021):
// choose, per column pair and without labels, the matching threshold that
// maximizes recall subject to an estimated precision constraint. The
// paper's Related Work contrasts its fixed global θ with this approach;
// AutoTuner makes the comparison runnable.
//
// Precision is estimated from ambiguity: a candidate match (a, b) at
// distance d is deemed unreliable when a has another partner b' whose
// distance is within the separation margin of d — under the clean-clean
// assumption at most one partner is correct, so near-ties are evidence of
// a false-positive regime at that radius. Estimated precision at threshold
// t is the fraction of accepted pairs that are unambiguous.

// AutoTuner selects per-column-pair thresholds.
type AutoTuner struct {
	// Scorer measures value distance (required).
	Scorer Scorer
	// MinPrecision is the precision constraint (default 0.9).
	MinPrecision float64
	// Margin is the separation margin for the ambiguity test (default 0.1).
	Margin float64
	// Candidates are the thresholds to consider, ascending (default
	// 0.3..0.9 step 0.1).
	Candidates []float64
}

func (a *AutoTuner) minPrecision() float64 {
	if a.MinPrecision == 0 {
		return 0.9
	}
	return a.MinPrecision
}

func (a *AutoTuner) margin() float64 {
	if a.Margin == 0 {
		return 0.1
	}
	return a.Margin
}

func (a *AutoTuner) candidates() []float64 {
	if len(a.Candidates) > 0 {
		return a.Candidates
	}
	return []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

// Tune returns the selected threshold for matching colA against colB:
// the largest candidate threshold whose estimated precision clears
// MinPrecision, or the smallest candidate when none does.
func (a *AutoTuner) Tune(colA, colB []string) float64 {
	cands := append([]float64(nil), a.candidates()...)
	sort.Float64s(cands)
	if len(colA) == 0 || len(colB) == 0 {
		return cands[len(cands)-1]
	}
	maxT := cands[len(cands)-1]

	// For every left value, its best and second-best distances to the
	// right column (within the largest candidate threshold).
	type sep struct {
		best, second float64
	}
	// A vector scorer's points are resolved once per value, not per pair.
	vectors, _ := a.Scorer.(vectorScorer)
	var pa, pb []point
	if vectors != nil {
		resolve := func(v string) point { return pointOf(vectors, v) }
		pa, pb = points(colA, resolve), points(colB, resolve)
	}
	seps := make([]sep, 0, len(colA))
	for i, va := range colA {
		s := sep{best: 2, second: 2}
		for j, vb := range colB {
			var d float64
			if vectors != nil {
				d = pointDistance(va, vb, pa[i], pb[j])
			} else {
				d = a.Scorer.Distance(va, vb)
			}
			if d > maxT {
				continue
			}
			switch {
			case d < s.best:
				s.second = s.best
				s.best = d
			case d < s.second:
				s.second = d
			}
		}
		if s.best <= maxT {
			seps = append(seps, s)
		}
	}
	if len(seps) == 0 {
		return cands[0]
	}

	chosen := cands[0]
	for _, t := range cands {
		accepted := 0
		unambiguous := 0
		for _, s := range seps {
			if s.best >= t {
				continue
			}
			accepted++
			if s.second-s.best >= a.margin() {
				unambiguous++
			}
		}
		if accepted == 0 {
			// Nothing accepted yet: trivially precise, keep growing.
			chosen = t
			continue
		}
		if float64(unambiguous)/float64(accepted) >= a.minPrecision() {
			chosen = t
		}
	}
	return chosen
}

// MatchAutoTuned runs the sequential Match Values algorithm with a
// per-round threshold chosen by the tuner (matching the AutoFuzzyJoin
// setting, which tunes each column pair independently). The Matcher's
// configured θ is ignored.
func (m *Matcher) MatchAutoTuned(cols []Column, tuner *AutoTuner) ([]Cluster, error) {
	if tuner.Scorer == nil {
		tuner.Scorer = m.scorer()
	}
	if tuner.Scorer == nil {
		return nil, ErrNoEmbedder
	}
	clusters, _, err := m.match(context.Background(), cols, func(_ int, reps, values []string) float64 {
		return tuner.Tune(reps, values)
	})
	return clusters, err
}
