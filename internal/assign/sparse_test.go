package assign

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// sparseCase is one random candidate graph of the differential test.
type sparseCase struct {
	nA, nB int
	edges  []Edge
	// distinct: no two edges share a cost, so the optimum is unique (up to
	// equal sums of different random floats) and pair lists must agree.
	distinct bool
}

// randomSparseCase draws a graph whose shape cycles with i through the
// cases the sparse solver must get right: more rows than columns, more
// columns than rows, isolated nodes, duplicate edges and tie-heavy costs.
func randomSparseCase(r *rand.Rand, i int) sparseCase {
	c := sparseCase{nA: 1 + r.Intn(40), nB: 1 + r.Intn(40), distinct: true}
	switch i % 5 {
	case 0: // rows > cols
		c.nB = 1 + r.Intn(c.nA)
	case 1: // cols > rows
		c.nA = 1 + r.Intn(c.nB)
	}
	cost := func() float64 { return r.Float64() }
	if i%5 == 2 { // tie-heavy: a handful of cost levels
		c.distinct = false
		cost = func() float64 { return float64(r.Intn(4)) / 4 }
	}
	// Isolated nodes: only a prefix of each side may carry edges.
	liveA, liveB := c.nA, c.nB
	if i%5 == 3 {
		liveA, liveB = 1+r.Intn(c.nA), 1+r.Intn(c.nB)
	}
	n := r.Intn(3 * (liveA + liveB))
	for k := 0; k < n; k++ {
		c.edges = append(c.edges, Edge{A: r.Intn(liveA), B: r.Intn(liveB), Cost: cost()})
	}
	if i%5 == 4 { // duplicate edges at other costs
		for _, e := range c.edges[:len(c.edges)/2] {
			c.edges = append(c.edges, Edge{A: e.A, B: e.B, Cost: cost()})
		}
	}
	return c
}

// caseMatrix is the case as a Forbidden-filled cost matrix holding the
// cheapest of duplicate edges.
func caseMatrix(c sparseCase) [][]float64 {
	cost := make([][]float64, c.nA)
	for i := range cost {
		cost[i] = make([]float64, c.nB)
		for j := range cost[i] {
			cost[i][j] = Forbidden
		}
	}
	for _, e := range c.edges {
		if e.Cost < cost[e.A][e.B] {
			cost[e.A][e.B] = e.Cost
		}
	}
	return cost
}

// denseReference solves the case with Solve over caseMatrix.
func denseReference(t *testing.T, c sparseCase) ([]Pair, float64) {
	t.Helper()
	cost := caseMatrix(c)
	rowToCol, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []Pair
	for i, j := range rowToCol {
		if j >= 0 {
			pairs = append(pairs, Pair{A: i, B: j, Cost: cost[i][j]})
		}
	}
	return pairs, total
}

// bruteReference solves the case with BruteForce over the same matrix as
// denseReference, returning the cardinality and total cost.
func bruteReference(t *testing.T, c sparseCase) (int, float64) {
	t.Helper()
	rowToCol, total, err := BruteForce(caseMatrix(c))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, j := range rowToCol {
		if j >= 0 {
			n++
		}
	}
	return n, total
}

// checkMatching fails t unless got is a matching over c's edges, in
// ascending A order, whose every pair costs the cheapest edge between its
// nodes, and returns its total cost.
func checkMatching(t *testing.T, c sparseCase, got []Pair) float64 {
	t.Helper()
	cheapest := make(map[[2]int]float64)
	for _, e := range c.edges {
		k := [2]int{e.A, e.B}
		if old, ok := cheapest[k]; !ok || e.Cost < old {
			cheapest[k] = e.Cost
		}
	}
	usedA, usedB := make(map[int]bool), make(map[int]bool)
	total := 0.0
	for i, p := range got {
		if usedA[p.A] || usedB[p.B] {
			t.Fatalf("%v reuses a node in %v", p, got)
		}
		usedA[p.A], usedB[p.B] = true, true
		if i > 0 && got[i-1].A > p.A {
			t.Fatalf("pairs %v are not in A order", got)
		}
		if cost, ok := cheapest[[2]int{p.A, p.B}]; !ok || cost != p.Cost {
			t.Fatalf("pair %v is not the cheapest edge between its nodes", p)
		}
		total += p.Cost
	}
	return total
}

// Property: on random sparse graphs MatchSparse returns a matching over the
// given edges with the cardinality and total cost of the dense solver, and
// the very same pairs wherever the optimum is unique.
func TestMatchSparseDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 3000; i++ {
		c := randomSparseCase(r, i)
		got, _ := MatchSparse(c.nA, c.nB, c.edges)
		want, wantTotal := denseReference(t, c)
		total := checkMatching(t, c, got)
		if len(got) != len(want) {
			t.Fatalf("case %d: cardinality %d, dense %d", i, len(got), len(want))
		}
		if math.Abs(total-wantTotal) > 1e-9 {
			t.Fatalf("case %d: total cost %v, dense %v", i, total, wantTotal)
		}
		if c.distinct && !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: pairs %v, dense %v", i, got, want)
		}
	}
}

// FuzzMatchSparse decodes up to 12 left and 12 right items and an edge list
// whose costs come from a few levels, 0 included, so ties and duplicate
// edges are common. The result must be a matching over the cheapest given
// edges with the dense solver's cardinality and total cost (and the brute
// force's, where it is small enough to enumerate), and must not depend on
// the order the edges arrive in.
func FuzzMatchSparse(f *testing.F) {
	f.Add([]byte{3, 3, 0, 0, 1, 0, 1, 0, 1, 0, 0, 2, 2, 5})
	f.Add([]byte{12, 5, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 1, 1, 2, 11, 4, 3})
	f.Add([]byte{9, 12, 8, 11, 1, 8, 11, 3, 0, 0, 0, 0, 0, 0})
	levels := []float64{0, 0.1, 0.2, 0.3, 0.5, 0.9}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		c := sparseCase{nA: int(data[0]) % 13, nB: int(data[1]) % 13}
		if c.nA > 0 && c.nB > 0 {
			for e := data[2:]; len(e) >= 3; e = e[3:] {
				c.edges = append(c.edges, Edge{A: int(e[0]) % c.nA, B: int(e[1]) % c.nB, Cost: levels[int(e[2])%len(levels)]})
			}
		}
		got, shape := MatchSparse(c.nA, c.nB, c.edges)
		total := checkMatching(t, c, got)
		want, wantTotal := denseReference(t, c)
		if len(got) != len(want) || math.Abs(total-wantTotal) > 1e-9 {
			t.Fatalf("%d pairs costing %v, dense %d costing %v", len(got), total, len(want), wantTotal)
		}
		if c.nA <= 9 {
			n, bfTotal := bruteReference(t, c)
			if len(got) != n || math.Abs(total-bfTotal) > 1e-9 {
				t.Fatalf("%d pairs costing %v, brute force %d costing %v", len(got), total, n, bfTotal)
			}
		}
		reversed := slices.Clone(c.edges)
		slices.Reverse(reversed)
		if again, againShape := MatchSparse(c.nA, c.nB, reversed); !reflect.DeepEqual(again, got) || againShape != shape {
			t.Fatalf("reversed edges give %v %+v, want %v %+v", again, againShape, got, shape)
		}
	})
}

// The result is a function of the edge set: any arrival order of the same
// edges, ties and duplicates included, yields the same pairs.
func TestMatchSparseOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		c := randomSparseCase(r, 2) // tie-heavy
		if i%2 == 1 {               // and duplicates among the ties
			for _, e := range c.edges[:len(c.edges)/2] {
				c.edges = append(c.edges, Edge{A: e.A, B: e.B, Cost: float64(r.Intn(4)) / 4})
			}
		}
		want, wantShape := MatchSparse(c.nA, c.nB, c.edges)
		for k := 0; k < 5; k++ {
			r.Shuffle(len(c.edges), func(a, b int) { c.edges[a], c.edges[b] = c.edges[b], c.edges[a] })
			got, shape := MatchSparse(c.nA, c.nB, c.edges)
			if !reflect.DeepEqual(got, want) || shape != wantShape {
				t.Fatalf("case %d shuffle %d: %v %+v, want %v %+v", i, k, got, shape, want, wantShape)
			}
		}
	}
}

func TestMatchSparseShape(t *testing.T) {
	// Components {0,1}×{0,1,2}, {2}×{3}; left 3 and right 4 are isolated.
	edges := []Edge{
		{A: 0, B: 0, Cost: 0.1}, {A: 0, B: 1, Cost: 0.2}, {A: 1, B: 1, Cost: 0.3}, {A: 1, B: 2, Cost: 0.4},
		{A: 2, B: 3, Cost: 0.5},
	}
	_, shape := MatchSparse(4, 5, edges)
	if want := (SparseShape{Components: 2, LargestLeft: 2, LargestRight: 3}); shape != want {
		t.Errorf("shape %+v, want %+v", shape, want)
	}
}

// One 1 500 × 1 500 component with three edges per node must cost memory in
// proportion to its 4 500 edges, not to its 2.25 M cells (18 MB as a dense
// float64 matrix).
func TestMatchSparseAllocatesPerEdge(t *testing.T) {
	const n = 1500
	r := rand.New(rand.NewSource(16))
	var edges []Edge
	for i := 0; i < n; i++ {
		for _, j := range []int{i - 1, i, i + 1} {
			if j >= 0 && j < n {
				edges = append(edges, Edge{A: i, B: j, Cost: r.Float64()})
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pairs, shape := MatchSparse(n, n, edges)
	runtime.ReadMemStats(&after)

	if len(pairs) != n {
		t.Errorf("matched %d of %d", len(pairs), n)
	}
	if want := (SparseShape{Components: 1, LargestLeft: n, LargestRight: n}); shape != want {
		t.Errorf("shape %+v, want %+v", shape, want)
	}
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(edges))
	t.Logf("%d edges, %.0f bytes per edge", len(edges), perEdge)
	if perEdge > 400 {
		t.Errorf("%.0f bytes allocated per edge; a dense matrix would be %d", perEdge, n*n*8/len(edges))
	}
}

// Edges strictly ascending by (A, B) are canonical: canonicalEdges hands
// them back without a copy or a sort. A duplicate pair or an inversion
// still takes the sorted copy, and the caller's slice is left as it was.
func TestCanonicalEdgesKeepsSortedInput(t *testing.T) {
	sorted := []Edge{{A: 0, B: 1, Cost: 0.5}, {A: 0, B: 3, Cost: 0.1}, {A: 2, B: 0, Cost: 0.2}}
	if got := canonicalEdges(sorted); &got[0] != &sorted[0] || len(got) != len(sorted) {
		t.Errorf("sorted input was copied: %v", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { canonicalEdges(sorted) }); allocs != 0 {
		t.Errorf("sorted input: %.0f allocations, want 0", allocs)
	}
	for name, edges := range map[string][]Edge{
		"duplicate": {{A: 0, B: 1, Cost: 0.5}, {A: 0, B: 1, Cost: 0.1}, {A: 2, B: 0, Cost: 0.2}},
		"inverted":  {{A: 0, B: 3, Cost: 0.1}, {A: 0, B: 1, Cost: 0.5}, {A: 2, B: 0, Cost: 0.2}},
	} {
		in := slices.Clone(edges)
		got := canonicalEdges(edges)
		if &got[0] == &edges[0] || !reflect.DeepEqual(edges, in) {
			t.Errorf("%s: canonicalEdges reused or changed the caller's slice: %v", name, edges)
		}
		if !strictlyAscending(got) {
			t.Errorf("%s: %v is not strictly ascending", name, got)
		}
	}
}
