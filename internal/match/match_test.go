package match

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"fuzzyfd/internal/embed"
)

// Validate checks the guarantee the implementation provides for Definition
// 2: every member joined its cluster at a distance under θ from the
// then-current representative (recorded in Member.Dist), and every cluster
// has exactly one member per column at most (columns from the same table do
// not align with themselves, so a column contributes at most one value to a
// set of matched values). Returns the first violation found.
func Validate(clusters []Cluster, theta float64) error {
	for ci, c := range clusters {
		if len(c.Members) == 0 {
			return fmt.Errorf("match: cluster %d is empty", ci)
		}
		cols := make(map[int]bool, len(c.Members))
		repSeen := false
		for _, mem := range c.Members {
			if mem.Dist >= theta {
				return fmt.Errorf("match: cluster %d: member %q matched at distance %.3f (θ=%.2f)",
					ci, mem.Value, mem.Dist, theta)
			}
			if cols[mem.Col] {
				return fmt.Errorf("match: cluster %d: two members from column %d", ci, mem.Col)
			}
			cols[mem.Col] = true
			if mem.Value == c.Rep {
				repSeen = true
			}
		}
		if !repSeen {
			return fmt.Errorf("match: cluster %d: representative %q is not a member", ci, c.Rep)
		}
	}
	return nil
}

func mistralMatcher(p Path) *Matcher {
	return (&Matcher{Emb: embed.NewMistral()}).Pin(p)
}

// matchClusters is Match's clusters under a background context.
func matchClusters(m *Matcher, cols []Column) ([]Cluster, error) {
	clusters, _, err := m.Match(context.Background(), cols)
	return clusters, err
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
	for _, path := range []Path{Dense, Sparse} {
		clusters, err := matchClusters(mistralMatcher(path), cols)
		if err != nil {
			t.Fatal(err)
		}
		if len(clusters) != 5 {
			t.Fatalf("path %v: got %d clusters, want 5: %+v", path, len(clusters), clusters)
		}
		byRep := clusterByRep(clusters)

		berlin, ok := byRep["Berlin"]
		if !ok {
			t.Fatalf("path %v: no Berlin cluster (reps: %v)", path, repsOf(clusters))
		}
		if vals := memberValues(berlin); !vals["Berlinn"] || !vals["Berlin"] || len(berlin.Members) != 3 {
			t.Errorf("path %v: Berlin cluster members=%v", path, berlin.Members)
		}

		barca, ok := byRep["Barcelona"]
		if !ok {
			t.Fatalf("path %v: no Barcelona cluster", path)
		}
		if vals := memberValues(barca); !vals["barcelona"] || len(barca.Members) != 3 {
			t.Errorf("path %v: Barcelona cluster members=%v", path, barca.Members)
		}

		for _, rep := range []string{"Toronto", "New Delhi", "Boston"} {
			if _, ok := byRep[rep]; !ok {
				t.Errorf("path %v: missing cluster %q", path, rep)
			}
		}
		if err := Validate(clusters, DefaultTheta); err != nil {
			t.Errorf("path %v: %v", path, err)
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
	clusters, err := matchClusters(mistralMatcher(Dense), cols)
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
	if _, err := matchClusters(&Matcher{}, []Column{{Values: []string{"a"}, Counts: []int{1}}}); err == nil {
		t.Error("nil embedder accepted")
	}
	if _, err := matchClusters(mistralMatcher(Dense), []Column{{Values: []string{"a"}, Counts: nil}}); err == nil {
		t.Error("mismatched counts accepted")
	}
}

func TestMatchEmptyAndSingle(t *testing.T) {
	m := mistralMatcher(Dense)
	got, err := matchClusters(m, nil)
	if err != nil || got != nil {
		t.Errorf("empty input: %v %v", got, err)
	}
	single, err := matchClusters(m, []Column{NewColumn("only", []string{"x", "y"})})
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
	clusters, err := matchClusters(mistralMatcher(Dense), cols)
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
	clusters, err = matchClusters(mistralMatcher(Dense), cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 || clusters[0].Rep != "Berlinn" {
		t.Fatalf("tie should keep first table's value: %+v", clusters)
	}
}

// On these small city-name columns every edge under θ shares a blocking
// key, so the blocked path finds the dense path's edges, and one solver
// over the same edges returns the same clusters. That is a property of the fixture, not of blocking: in general a blocked
// round's edges are only a subset of the dense round's
// (TestBlockedEdgesSubsetOfDense).
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
				return strings.ToLower(s)
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
		dense, err := matchClusters(mistralMatcher(Dense), cols)
		if err != nil {
			return false
		}
		sparse, err := matchClusters(mistralMatcher(Sparse), cols)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(dense, sparse) {
			t.Logf("seed %d: dense %+v\nsparse %+v", seed, dense, sparse)
			return false
		}
		return true
	}
	// Fixed corpus: that every edge under θ shares a key is checked on
	// these inputs only.
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2024))}); err != nil {
		t.Error(err)
	}
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
		clusters, err := matchClusters(&Matcher{Emb: embed.NewMistral()}, cols)
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

func BenchmarkBlockingKeys(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blockingKeys("University of Springfield at Riverton", nil)
	}
}
