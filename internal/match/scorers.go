package match

import (
	"fmt"

	"fuzzyfd/internal/strutil"
)

// qgramScorer scores values by character q-gram set dissimilarity — the
// string-transformation family of fuzzy join methods the paper contrasts
// with (Zhu, He, Chaudhuri: Auto-Join, VLDB 2017, which matches n-grams of
// cell values). It needs no embeddings and no knowledge, so it bridges
// typos and case variants but not synonyms or codes.
type qgramScorer struct {
	q int
}

// QGramScorer returns a Scorer based on 1 − Jaccard similarity of the
// padded character q-gram sets of the folded values. q defaults to 3 when
// non-positive.
func QGramScorer(q int) Scorer {
	if q <= 0 {
		q = 3
	}
	return qgramScorer{q: q}
}

func (s qgramScorer) Name() string { return fmt.Sprintf("qgram%d", s.q) }

func (s qgramScorer) Distance(a, b string) float64 {
	if a == b {
		return 0
	}
	return 1 - strutil.QGramJaccard(strutil.Fold(a), strutil.Fold(b), s.q)
}
