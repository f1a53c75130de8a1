// Package assign implements linear sum assignment (minimum-cost bipartite
// matching), the primitive the paper uses for value matching (it calls
// scipy's linear_sum_assignment, an implementation of the shortest
// augmenting path algorithm described by Crouse, 2016).
//
// Three solvers are provided:
//
//   - Solve: exact O(n²·m) dense solver (Jonker–Volgenant style potentials
//     with shortest augmenting paths), for complete cost matrices.
//   - MatchSparse: exact solver for sparse candidate graphs; the same
//     shortest augmenting paths, found by Dijkstra over adjacency lists, so
//     its cost follows the number of candidate edges and no matrix is
//     built. Its optimum equals a dense solve where absent edges carry a
//     prohibitive cost.
//   - Greedy: the classic lowest-edge-first heuristic, used as an ablation
//     baseline.
package assign

import (
	"errors"
	"fmt"
	"math"
)

// Forbidden is the cost marking a disallowed pairing in a dense matrix.
// Assignments to Forbidden edges are reported as unmatched (-1).
const Forbidden = math.MaxFloat64 / 4

// ErrRagged is returned when the cost matrix rows have unequal lengths.
var ErrRagged = errors.New("assign: ragged cost matrix")

// Solve computes a minimum-cost assignment for the dense cost matrix
// (rows × cols). It returns rowToCol, where rowToCol[i] is the column
// assigned to row i or -1 if row i is unmatched (possible when rows > cols,
// or when the only available edges are Forbidden), and the total cost over
// matched non-Forbidden pairs.
//
// All finite costs must be non-negative well below Forbidden; cosine
// distances in [0,1] trivially satisfy this.
func Solve(cost [][]float64) ([]int, float64, error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	for i, row := range cost {
		if len(row) != m {
			return nil, 0, fmt.Errorf("%w: row %d has %d entries, want %d", ErrRagged, i, len(row), m)
		}
	}
	if m == 0 {
		unmatched := make([]int, n)
		for i := range unmatched {
			unmatched[i] = -1
		}
		return unmatched, 0, nil
	}
	if n > m {
		// Transpose so that rows ≤ cols, solve, and invert the mapping.
		tr := make([][]float64, m)
		for j := 0; j < m; j++ {
			tr[j] = make([]float64, n)
			for i := 0; i < n; i++ {
				tr[j][i] = cost[i][j]
			}
		}
		colToRow, total, err := Solve(tr)
		if err != nil {
			return nil, 0, err
		}
		rowToCol := make([]int, n)
		for i := range rowToCol {
			rowToCol[i] = -1
		}
		for j, i := range colToRow {
			if i >= 0 {
				rowToCol[i] = j
			}
		}
		return rowToCol, total, nil
	}

	// Clamp Forbidden entries to a prohibitive but well-conditioned value:
	// larger than any sum of real costs, small enough that the dual
	// potential arithmetic never overflows or loses precision.
	work := cost
	big := 1.0
	clamped := false
	for _, row := range cost {
		for _, c := range row {
			if c >= Forbidden {
				clamped = true
			} else {
				big += c
			}
		}
	}
	if clamped {
		big *= 2
		work = make([][]float64, n)
		for i, row := range cost {
			work[i] = make([]float64, m)
			for j, c := range row {
				if c >= Forbidden {
					work[i][j] = big
				} else {
					work[i][j] = c
				}
			}
		}
	}

	rowToCol := solveRect(work, n, m)
	total := 0.0
	for i, j := range rowToCol {
		if j < 0 {
			continue
		}
		if cost[i][j] >= Forbidden {
			rowToCol[i] = -1
			continue
		}
		total += cost[i][j]
	}
	return rowToCol, total, nil
}

// solveRect runs the shortest-augmenting-path assignment on an n×m matrix
// with n ≤ m, returning the column (0-based) matched to each row. Every row
// receives a column (possibly via a Forbidden edge; the caller filters).
//
// This is the classic O(n²·m) potentials formulation: u and v are dual
// potentials over rows and columns, p[j] is the row matched to column j,
// and each outer iteration augments along a shortest path in reduced costs.
func solveRect(cost [][]float64, n, m int) []int {
	const inf = math.MaxFloat64
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)   // p[j]: row matched to column j (1-based; 0 = free)
	way := make([]int, m+1) // back-pointers along the augmenting path
	minv := make([]float64, m+1)
	used := make([]bool, m+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	rowToCol := make([]int, n)
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			rowToCol[p[j]-1] = j - 1
		}
	}
	return rowToCol
}
