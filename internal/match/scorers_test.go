package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fuzzyfd/internal/embed"
)

func TestQGramScorerBasics(t *testing.T) {
	s := QGramScorer(3)
	if s.Name() != "qgram3" {
		t.Errorf("Name=%q", s.Name())
	}
	if d := s.Distance("Berlin", "Berlin"); d != 0 {
		t.Errorf("identical=%v", d)
	}
	if d := s.Distance("Berlin", "berlin"); d != 0 {
		t.Errorf("case variants should be identical after folding: %v", d)
	}
	typo := s.Distance("Berlin", "Berlinn")
	unrelated := s.Distance("Berlin", "Toronto")
	if typo >= unrelated {
		t.Errorf("typo %v should be closer than unrelated %v", typo, unrelated)
	}
	// No world knowledge: codes stay far.
	if d := s.Distance("Canada", "CA"); d < 0.7 {
		t.Errorf("qgram scorer should not bridge synonyms: %v", d)
	}
	if got := QGramScorer(0).Name(); got != "qgram3" {
		t.Errorf("default q: %q", got)
	}
}

func TestQGramScorerProperties(t *testing.T) {
	s := QGramScorer(3)
	words := []string{"Berlin", "berlin", "Berlinn", "Toronto", "", "New Delhi"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := words[r.Intn(len(words))]
		b := words[r.Intn(len(words))]
		d := s.Distance(a, b)
		return d >= 0 && d <= 1 && d == s.Distance(b, a) && (a != b || d == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A scorer without vectors runs through both candidate paths: the blocked
// path must fall back to Distance per candidate.
func TestMatcherWithQGramScorer(t *testing.T) {
	for _, path := range []Path{Dense, Sparse} {
		m := (&Matcher{Scorer: QGramScorer(3)}).Pin(path)
		clusters, err := matchClusters(m, []Column{
			NewColumn("a", []string{"Berlinn", "Toronto"}),
			NewColumn("b", []string{"Berlin", "Boston"}),
		})
		if err != nil {
			t.Fatal(err)
		}
		byRep := clusterByRep(clusters)
		// Typo matched, unrelated city not.
		found := false
		for rep, c := range byRep {
			if len(c.Members) == 2 {
				found = true
				if rep != "Berlinn" && rep != "Berlin" {
					t.Errorf("path %d: unexpected merged cluster %q", path, rep)
				}
			}
		}
		if !found || len(clusters) != 3 {
			t.Errorf("path %d: typo pair not merged: %+v", path, clusters)
		}
	}
}

func TestAutoTunerSeparableColumns(t *testing.T) {
	// Clean pairs: typo variants are well separated from everything else,
	// so the tuner can afford a generous threshold and recover all pairs.
	colA := []string{"Berlin", "Toronto", "Barcelona", "Madrid"}
	colB := []string{"Berlinn", "Torontoo", "Barrcelona", "Madridd"}
	tuner := &AutoTuner{Scorer: EmbedderScorer(embed.NewMistral())}
	theta := tuner.Tune(colA, colB)
	if theta < 0.4 {
		t.Errorf("separable columns should allow a generous threshold, got %.2f", theta)
	}

	m := &Matcher{Emb: embed.NewMistral()}
	clusters, err := m.MatchAutoTuned(
		[]Column{NewColumn("a", colA), NewColumn("b", colB)}, tuner)
	if err != nil {
		t.Fatal(err)
	}
	merged := 0
	for _, c := range clusters {
		if len(c.Members) == 2 {
			merged++
		}
	}
	if merged != 4 {
		t.Errorf("merged=%d want 4: %+v", merged, clusters)
	}
}

func TestAutoTunerAmbiguousColumns(t *testing.T) {
	// Every left value is equidistant (q-gram distance 2/3) to two right
	// values: the ambiguity estimator must keep the threshold below that
	// radius so none of the coin-flip pairs is accepted.
	colA := []string{"aaaa1", "bbbb1", "cccc1"}
	colB := []string{"aaaa2", "aaaa3", "bbbb2", "bbbb3", "cccc2", "cccc3"}
	tuner := &AutoTuner{Scorer: QGramScorer(3)}
	theta := tuner.Tune(colA, colB)
	if theta > 2.0/3.0 {
		t.Errorf("ambiguous columns should force the threshold under the ambiguous radius, got %.2f", theta)
	}
}

func TestAutoTunerEdgeCases(t *testing.T) {
	tuner := &AutoTuner{Scorer: QGramScorer(3)}
	if theta := tuner.Tune(nil, []string{"x"}); theta != 0.9 {
		t.Errorf("empty column: %.2f", theta)
	}
	// No candidate under the max threshold at all.
	if theta := tuner.Tune([]string{"aaaa"}, []string{"zzzz9999xxxx"}); theta != 0.3 {
		t.Errorf("no candidates: %.2f", theta)
	}
}

func TestMatchAutoTunedErrors(t *testing.T) {
	m := &Matcher{}
	if _, err := m.MatchAutoTuned([]Column{NewColumn("a", []string{"x"})}, &AutoTuner{}); err == nil {
		t.Error("nil scorer accepted")
	}
}
