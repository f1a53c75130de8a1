package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPairCanonical(t *testing.T) {
	if NewPair("b", "a") != NewPair("a", "b") {
		t.Error("pair should be order-insensitive")
	}
}

func TestPairSetBasics(t *testing.T) {
	s := NewPairSet()
	s.Add("x", "y")
	s.Add("y", "x") // duplicate in other order
	s.Add("z", "z") // self pair ignored
	if s.Len() != 1 {
		t.Fatalf("Len=%d want 1", s.Len())
	}
	if !s[NewPair("y", "x")] {
		t.Error("membership should be order-insensitive")
	}
}

func TestUnionIntersect(t *testing.T) {
	a := NewPairSet()
	a.Add("1", "2")
	a.Add("1", "3")
	b := NewPairSet()
	b.Add("3", "1")
	b.Add("4", "5")
	inter := a.Intersect(b)
	if inter.Len() != 1 || !inter[NewPair("1", "3")] {
		t.Errorf("Intersect=%v", inter)
	}
}

func TestEvaluatePerfect(t *testing.T) {
	gold := NewPairSet()
	gold.Add("a", "b")
	gold.Add("c", "d")
	m := Evaluate(gold, gold)
	if m.Precision != 1 || m.Recall != 1 || m.F1 != 1 {
		t.Errorf("perfect prediction scored %v", m)
	}
	if m.TP != 2 || m.FP != 0 || m.FN != 0 {
		t.Errorf("confusion: %+v", m)
	}
}

func TestEvaluatePartial(t *testing.T) {
	gold := NewPairSet()
	gold.Add("a", "b")
	gold.Add("c", "d")
	pred := NewPairSet()
	pred.Add("a", "b")
	pred.Add("x", "y")
	m := Evaluate(pred, gold)
	if m.Precision != 0.5 || m.Recall != 0.5 {
		t.Errorf("P=%v R=%v want 0.5/0.5", m.Precision, m.Recall)
	}
	if math.Abs(m.F1-0.5) > 1e-12 {
		t.Errorf("F1=%v want 0.5", m.F1)
	}
}

func TestEvaluateEdgeCases(t *testing.T) {
	empty := NewPairSet()
	some := NewPairSet()
	some.Add("a", "b")

	m := Evaluate(empty, empty)
	if m.Precision != 1 || m.Recall != 1 || m.F1 != 1 {
		t.Errorf("empty-vs-empty=%v", m)
	}
	m = Evaluate(empty, some)
	if m.Precision != 1 || m.Recall != 0 || m.F1 != 0 {
		t.Errorf("nothing-predicted=%v", m)
	}
	m = Evaluate(some, empty)
	if m.Precision != 0 || m.Recall != 1 {
		t.Errorf("everything-spurious=%v", m)
	}
}

func TestPRFString(t *testing.T) {
	s := PRF{Precision: 0.8612, Recall: 0.85, F1: 0.8556}.String()
	if s != "P=86.1% R=85.0% F1=85.6%" {
		t.Errorf("String()=%q", s)
	}
}

func TestMean(t *testing.T) {
	scores := []PRF{
		{Precision: 1, Recall: 0, F1: 0.5},
		{Precision: 0, Recall: 1, F1: 0.5},
	}
	m := Mean(scores)
	if m.Precision != 0.5 || m.Recall != 0.5 || m.F1 != 0.5 {
		t.Errorf("Mean=%v", m)
	}
	if z := Mean(nil); z.Precision != 0 || z.Recall != 0 {
		t.Errorf("Mean(nil)=%v", z)
	}
}

// Properties: F1 is bounded by min and max of P and R ordering-wise, and
// evaluation against itself is always perfect.
func TestEvaluateProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() PairSet {
			s := NewPairSet()
			n := r.Intn(20)
			for i := 0; i < n; i++ {
				s.Add(string(rune('a'+r.Intn(8))), string(rune('a'+r.Intn(8))))
			}
			return s
		}
		pred := mk()
		gold := mk()
		m := Evaluate(pred, gold)
		if m.Precision < 0 || m.Precision > 1 || m.Recall < 0 || m.Recall > 1 || m.F1 < 0 || m.F1 > 1 {
			return false
		}
		self := Evaluate(pred, pred)
		if pred.Len() > 0 && (self.Precision != 1 || self.Recall != 1) {
			return false
		}
		// F1 is the harmonic mean: never above the arithmetic mean.
		if m.F1 > (m.Precision+m.Recall)/2+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
