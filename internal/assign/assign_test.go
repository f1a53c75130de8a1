package assign

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveTrivial(t *testing.T) {
	got, total, err := Solve(nil)
	if err != nil || got != nil || total != 0 {
		t.Errorf("empty: %v %v %v", got, total, err)
	}
	got, total, err = Solve([][]float64{{}})
	if err != nil || len(got) != 1 || got[0] != -1 || total != 0 {
		t.Errorf("zero cols: %v %v %v", got, total, err)
	}
}

func TestSolveSquare(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	rowToCol, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal is rows 0,1,2 -> cols 1,0,2 with total 1+2+2=5.
	if total != 5 {
		t.Errorf("total=%v want 5 (assignment %v)", total, rowToCol)
	}
	if rowToCol[0] != 1 || rowToCol[1] != 0 || rowToCol[2] != 2 {
		t.Errorf("assignment=%v", rowToCol)
	}
}

func TestSolveRectangularWide(t *testing.T) {
	// 2 rows, 4 cols: both rows must be matched to their cheapest distinct cols.
	cost := [][]float64{
		{9, 9, 1, 9},
		{9, 9, 0.5, 2},
	}
	rowToCol, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if rowToCol[0] != 2 || rowToCol[1] != 3 || total != 3 {
		t.Errorf("assignment=%v total=%v", rowToCol, total)
	}
}

func TestSolveRectangularTall(t *testing.T) {
	// 3 rows, 2 cols: exactly one row stays unmatched.
	cost := [][]float64{
		{1, 8},
		{2, 1},
		{0.1, 9},
	}
	rowToCol, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	unmatched := 0
	for _, j := range rowToCol {
		if j < 0 {
			unmatched++
		}
	}
	if unmatched != 1 {
		t.Fatalf("unmatched=%d want 1 (%v)", unmatched, rowToCol)
	}
	// Optimal: row2->col0 (0.1), row1->col1 (1), row0 unmatched. Total 1.1.
	if math.Abs(total-1.1) > 1e-9 {
		t.Errorf("total=%v want 1.1 (%v)", total, rowToCol)
	}
}

func TestSolveForbidden(t *testing.T) {
	cost := [][]float64{
		{Forbidden, 0.2},
		{Forbidden, Forbidden},
	}
	rowToCol, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if rowToCol[0] != 1 || rowToCol[1] != -1 {
		t.Errorf("assignment=%v", rowToCol)
	}
	if total != 0.2 {
		t.Errorf("total=%v", total)
	}
}

func TestSolveRagged(t *testing.T) {
	if _, _, err := Solve([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

// Property: the dense solver matches the brute-force oracle's total cost on
// random small matrices, including forbidden entries.
func TestSolveMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		m := 1 + r.Intn(5)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				if r.Intn(6) == 0 {
					cost[i][j] = Forbidden
				} else {
					cost[i][j] = math.Round(r.Float64()*100) / 100
				}
			}
		}
		_, gotTotal, err := Solve(cost)
		if err != nil {
			return false
		}
		_, wantTotal, err := BruteForce(cost)
		if err != nil {
			return false
		}
		return math.Abs(gotTotal-wantTotal) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: the solution is a valid partial matching — no column reused, all
// indices in range.
func TestSolveIsMatching(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		m := 1 + r.Intn(8)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = r.Float64()
			}
		}
		rowToCol, _, err := Solve(cost)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, j := range rowToCol {
			if j < -1 || j >= m {
				return false
			}
			if j >= 0 {
				if seen[j] {
					return false
				}
				seen[j] = true
			}
		}
		// With all finite costs and n<=m every row is matched; with n>m
		// exactly m rows are matched.
		want := n
		if m < n {
			want = m
		}
		return len(seen) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	cost := make([][]float64, 10)
	for i := range cost {
		cost[i] = make([]float64, 10)
	}
	if _, _, err := BruteForce(cost); err == nil {
		t.Error("oversized brute force accepted")
	}
}

func TestMatchSparseBasic(t *testing.T) {
	// Two components: {0,1}x{0,1} and {2}x{2}.
	edges := []Edge{
		{A: 0, B: 0, Cost: 0.9},
		{A: 0, B: 1, Cost: 0.1},
		{A: 1, B: 0, Cost: 0.1},
		{A: 1, B: 1, Cost: 0.2},
		{A: 2, B: 2, Cost: 0.5},
	}
	pairs, _ := MatchSparse(3, 3, edges)
	if len(pairs) != 3 {
		t.Fatalf("pairs=%v", pairs)
	}
	want := map[int]int{0: 1, 1: 0, 2: 2}
	for _, p := range pairs {
		if want[p.A] != p.B {
			t.Errorf("pair %v, want A%d->B%d", p, p.A, want[p.A])
		}
	}
}

func TestMatchSparseCardinalityDominates(t *testing.T) {
	// Matching both pairs costs 1.0+1.0; matching only the cheap edge costs
	// 0.1. Max-cardinality semantics must pick both.
	edges := []Edge{
		{A: 0, B: 0, Cost: 0.1},
		{A: 0, B: 1, Cost: 1.0},
		{A: 1, B: 0, Cost: 1.0},
	}
	pairs, _ := MatchSparse(2, 2, edges)
	if len(pairs) != 2 {
		t.Fatalf("want 2 pairs, got %v", pairs)
	}
}

func TestMatchSparseEmpty(t *testing.T) {
	if got, shape := MatchSparse(5, 5, nil); got != nil || shape != (SparseShape{}) {
		t.Errorf("no edges should yield no pairs: %v", got)
	}
}

func TestMatchSparseDuplicateEdges(t *testing.T) {
	edges := []Edge{
		{A: 0, B: 0, Cost: 0.9},
		{A: 0, B: 0, Cost: 0.2}, // cheaper duplicate wins
	}
	pairs, _ := MatchSparse(1, 1, edges)
	if len(pairs) != 1 || pairs[0].Cost != 0.2 {
		t.Errorf("pairs=%v", pairs)
	}
}
