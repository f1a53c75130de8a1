package embed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fuzzyfd/internal/strutil"
)

func TestVectorBasics(t *testing.T) {
	a := Vector{1, 0}
	b := Vector{0, 1}
	if Dot(a, b) != 0 {
		t.Errorf("orthogonal dot=%v", Dot(a, b))
	}
	if CosineDistance(a, a) != 0 {
		t.Errorf("self distance=%v", CosineDistance(a, a))
	}
	if CosineDistance(a, b) != 1 {
		t.Errorf("orthogonal distance=%v", CosineDistance(a, b))
	}
}

func TestHashIntoNormalizes(t *testing.T) {
	v := make(Vector, 16)
	hashInto(v, strutil.FNV1a("", "a"), 2)
	hashInto(v, strutil.FNV1a("", "b"), 3)
	normalize(v)
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if math.Abs(norm-1) > 1e-6 {
		t.Errorf("norm=%v want 1", norm)
	}
	for _, x := range normalize(make(Vector, 16)) {
		if x != 0 {
			t.Fatalf("a vector without features normalized to nonzero %v", x)
		}
	}
}

func TestAllModelsBasicInvariants(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Errorf("Name()=%q want %q", m.Name(), name)
		}
		v1 := m.Embed("Toronto")
		v2 := m.Embed("Toronto")
		if len(v1) != m.Dim() {
			t.Errorf("%s: dim %d want %d", name, len(v1), m.Dim())
		}
		// Self-distance is zero up to float32 normalization jitter.
		if d := CosineDistance(v1, v2); d > 1e-6 {
			t.Errorf("%s: identical values must embed identically (d=%v)", name, d)
		}
		// Determinism across instances: bit-identical vectors.
		m2, _ := New(name)
		v3 := m2.Embed("Toronto")
		for i := range v1 {
			if v1[i] != v3[i] {
				t.Fatalf("%s: non-deterministic across instances at dim %d", name, i)
			}
		}
		// Unit norm.
		var norm float64
		for _, x := range v1 {
			norm += float64(x) * float64(x)
		}
		if math.Abs(norm-1) > 1e-5 {
			t.Errorf("%s: norm=%v", name, norm)
		}
	}
}

func TestNewUnknownModel(t *testing.T) {
	if _, err := New("gpt-17"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestModelNamesOrder(t *testing.T) {
	names := ModelNames()
	want := []string{FastText, BERT, RoBERTa, Llama3, Mistral}
	if len(names) != len(want) {
		t.Fatalf("names=%v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names=%v want %v", names, want)
		}
	}
}

// The calibration contract: at the paper's θ=0.7, each tier must resolve
// the inconsistencies it is supposed to resolve and keep unrelated values
// apart. These pairs mirror the paper's running example (Fig. 1, Ex. 3).
func TestCalibrationAtTheta(t *testing.T) {
	const theta = 0.7
	type pair struct {
		a, b  string
		match bool // want distance < theta?
	}

	common := []pair{
		{"Toronto", "Toronto", true},
		{"Berlinn", "Berlin", true},  // typo
		{"Toronto", "Boston", false}, // unrelated cities
		{"Germany", "India", false},  // unrelated countries
		{"New Delhi", "Boston", false},
	}
	perModel := map[string][]pair{
		FastText: {
			// Case-sensitive: may or may not match case variants, but must
			// not bridge synonyms.
			{"Canada", "CA", false},
			{"Germany", "DE", false},
		},
		BERT: {
			{"Barcelona", "barcelona", true}, // case folding
			{"Canada", "CA", false},          // no world knowledge
		},
		RoBERTa: {
			{"Barcelona", "barcelona", true},
			{"Canada", "CA", false},
		},
		Llama3: {
			{"Barcelona", "barcelona", true},
			{"Canada", "CA", true}, // entity lexicon
			{"New York", "NY", true},
		},
		Mistral: {
			{"Barcelona", "barcelona", true},
			{"Canada", "CA", true},
			{"Germany", "DE", true},
			{"Spain", "ES", true},
			{"New York", "NY", true},
			{"September", "Sept.", true},
			{"India", "US", false}, // Ex. 3: discarded above threshold
		},
	}

	for _, name := range ModelNames() {
		m, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range append(append([]pair{}, common...), perModel[name]...) {
			d := Distance(m, p.a, p.b)
			if p.match && d >= theta {
				t.Errorf("%s: dist(%q,%q)=%.3f, want < %.2f", name, p.a, p.b, d, theta)
			}
			if !p.match && d < theta {
				t.Errorf("%s: dist(%q,%q)=%.3f, want ≥ %.2f", name, p.a, p.b, d, theta)
			}
		}
	}
}

// The tiers must be ordered: Mistral resolves at least the inconsistencies
// Llama3 does on the knowledge-driven pairs, and the LLM tiers beat the
// non-LLM tiers on synonym pairs.
func TestTierOrderingOnSynonyms(t *testing.T) {
	ft := NewFastText()
	bert := NewBERT()
	mistral := NewMistral()
	pairs := [][2]string{
		{"Canada", "CA"},
		{"Germany", "DE"},
		{"United States", "USA"},
	}
	for _, p := range pairs {
		dm := Distance(mistral, p[0], p[1])
		db := Distance(bert, p[0], p[1])
		df := Distance(ft, p[0], p[1])
		if dm >= db || dm >= df {
			t.Errorf("mistral should dominate on %v: mistral=%.3f bert=%.3f fasttext=%.3f", p, dm, db, df)
		}
	}
}

// Distance properties: symmetry, bounds, identity.
func TestDistanceProperties(t *testing.T) {
	m := NewMistral()
	words := []string{"Berlin", "berlin", "Berlinn", "Toronto", "CA", "Canada", "", "  ", "New Delhi", "Delhi"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := words[r.Intn(len(words))]
		b := words[r.Intn(len(words))]
		d1 := Distance(m, a, b)
		d2 := Distance(m, b, a)
		if d1 != d2 {
			return false
		}
		if d1 < 0 || d1 > 1 {
			return false
		}
		if a == b && d1 > 1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptyValueEmbedding(t *testing.T) {
	m := NewMistral()
	v := m.Embed("")
	if len(v) != m.Dim() {
		t.Fatalf("dim=%d", len(v))
	}
	// The empty value has no features; its vector is all zeros and its
	// distance to anything is the clamp ceiling.
	if d := Distance(m, "", "Berlin"); d != 1 {
		t.Errorf("dist('',Berlin)=%v want 1", d)
	}
}

// NewTuned scales entity knowledge: at share 0 synonyms are unreachable,
// and growing the share monotonically shrinks the synonym distance.
func TestNewTunedKnowledgeScaling(t *testing.T) {
	var prev float64 = 2
	for _, share := range []float64{0, 0.5, 1, 2, 4} {
		m := NewTuned(share)
		d := Distance(m, "Canada", "CA")
		if d > prev+1e-9 {
			t.Errorf("share %.1f: distance %.3f not monotone (prev %.3f)", share, d, prev)
		}
		prev = d
	}
	if d := Distance(NewTuned(0), "Canada", "CA"); d < 0.7 {
		t.Errorf("share 0 should not bridge synonyms: %.3f", d)
	}
	if d := Distance(NewTuned(4), "Canada", "CA"); d > 0.2 {
		t.Errorf("share 4 should nearly collapse synonyms: %.3f", d)
	}
}

func TestWarm(t *testing.T) {
	values := make([]string, 200)
	for i := range values {
		values[i] = "value-" + string(rune('a'+i%26)) + string(rune('0'+i%10))
	}
	m := NewMistral()
	Warm(m, values, 8)
	// All values must now be cached and identical to fresh embeddings.
	fresh := NewMistral()
	for _, v := range values {
		a := m.Embed(v)
		b := fresh.Embed(v)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("warmed embedding differs for %q", v)
			}
		}
	}
	// Degenerate worker counts fall back to sequential.
	Warm(m, values[:3], 0)
	Warm(m, nil, 4)
}

func TestNewTunedNames(t *testing.T) {
	a := NewTuned(1.5)
	b := NewTuned(0.5)
	if a.Name() == b.Name() {
		t.Errorf("tuned models should carry the share in their name: %q", a.Name())
	}
}

func BenchmarkEmbedMistralCold(b *testing.B) {
	words := []string{"Berlin", "Toronto", "Barcelona", "New Delhi", "Boston", "United States of America"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewMistral()
		for _, w := range words {
			m.Embed(w)
		}
	}
}

func BenchmarkEmbedMistralCached(b *testing.B) {
	m := NewMistral()
	m.Embed("Berlin")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Embed("Berlin")
	}
}
