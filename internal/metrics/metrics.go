// Package metrics implements the evaluation measures used throughout the
// paper's experiments: precision, recall, and F1 over sets of matched pairs,
// plus the pairwise reduction of clusterings to match pairs.
package metrics

import "fmt"

// Pair is an unordered pair of item identifiers. Use NewPair to get the
// canonical ordering so that Pair values compare equal regardless of
// argument order.
type Pair struct {
	A, B string
}

// NewPair returns the canonical (sorted) form of the pair {a, b}.
func NewPair(a, b string) Pair {
	if b < a {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// PairSet is a set of unordered pairs.
type PairSet map[Pair]bool

// NewPairSet returns an empty pair set.
func NewPairSet() PairSet { return make(PairSet) }

// Add inserts the pair {a, b}. Self-pairs (a == b) are ignored: an item
// trivially matches itself and counting it would inflate every score.
func (s PairSet) Add(a, b string) {
	if a == b {
		return
	}
	s[NewPair(a, b)] = true
}

// Len returns the number of pairs.
func (s PairSet) Len() int { return len(s) }

// Intersect returns a new set holding the common pairs of s and o.
func (s PairSet) Intersect(o PairSet) PairSet {
	small, big := s, o
	if len(big) < len(small) {
		small, big = big, small
	}
	out := make(PairSet)
	for p := range small {
		if big[p] {
			out[p] = true
		}
	}
	return out
}

// PRF holds precision, recall, and F1.
type PRF struct {
	Precision float64
	Recall    float64
	F1        float64
	TP        int // true-positive pairs
	FP        int // predicted but not gold
	FN        int // gold but not predicted
}

// String renders the scores as percentages, the way the paper reports them.
func (m PRF) String() string {
	return fmt.Sprintf("P=%.1f%% R=%.1f%% F1=%.1f%%", m.Precision*100, m.Recall*100, m.F1*100)
}

// Evaluate scores predicted pairs against gold pairs. Empty-vs-empty scores
// perfect (there was nothing to find and nothing was claimed).
func Evaluate(pred, gold PairSet) PRF {
	tp := pred.Intersect(gold).Len()
	fp := pred.Len() - tp
	fn := gold.Len() - tp
	m := PRF{TP: tp, FP: fp, FN: fn}
	switch {
	case pred.Len() == 0 && gold.Len() == 0:
		m.Precision, m.Recall, m.F1 = 1, 1, 1
		return m
	case pred.Len() == 0:
		m.Recall = 0
		m.Precision = 1 // nothing claimed, nothing wrong
	default:
		m.Precision = float64(tp) / float64(pred.Len())
	}
	if gold.Len() == 0 {
		m.Recall = 1
	} else {
		m.Recall = float64(tp) / float64(gold.Len())
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// Mean averages a list of PRF scores component-wise (macro average over
// integration sets, as the paper's Table 1 does). Returns zeros for an
// empty list.
func Mean(scores []PRF) PRF {
	if len(scores) == 0 {
		return PRF{}
	}
	var out PRF
	for _, s := range scores {
		out.Precision += s.Precision
		out.Recall += s.Recall
		out.F1 += s.F1
		out.TP += s.TP
		out.FP += s.FP
		out.FN += s.FN
	}
	n := float64(len(scores))
	out.Precision /= n
	out.Recall /= n
	out.F1 /= n
	return out
}
