package match

import "context"

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

// The tuner's precision constraint, the separation margin of its ambiguity
// test, and the thresholds it chooses from, ascending.
const (
	minPrecision = 0.9
	margin       = 0.1
)

var candidates = []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// AutoTuner selects per-column-pair thresholds.
type AutoTuner struct {
	// Scorer measures value distance (required).
	Scorer Scorer
}

// Tune returns the selected threshold for matching colA against colB:
// the largest candidate threshold whose estimated precision clears
// minPrecision, or the smallest candidate when none does.
func (a *AutoTuner) Tune(colA, colB []string) float64 {
	maxT := candidates[len(candidates)-1]
	if len(colA) == 0 || len(colB) == 0 {
		return maxT
	}

	// For every left value, its best and second-best distances to the
	// right column (within the largest candidate threshold).
	type sep struct {
		best, second float64
	}
	r := newRun(a.Scorer, nil)
	left, right := r.records(colA), r.records(colB)
	seps := make([]sep, 0, len(colA))
	for _, va := range left {
		s := sep{best: 2, second: 2}
		for _, vb := range right {
			d := r.distance(va, vb)
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
		return candidates[0]
	}

	chosen := candidates[0]
	for _, t := range candidates {
		accepted := 0
		unambiguous := 0
		for _, s := range seps {
			if s.best >= t {
				continue
			}
			accepted++
			if s.second-s.best >= margin {
				unambiguous++
			}
		}
		if accepted == 0 {
			// Nothing accepted yet: trivially precise, keep growing.
			chosen = t
			continue
		}
		if float64(unambiguous)/float64(accepted) >= minPrecision {
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
	clusters, _, err := m.match(context.Background(), cols, tuner.Tune)
	return clusters, err
}
