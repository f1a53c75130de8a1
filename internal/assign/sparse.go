package assign

import (
	"cmp"
	"math"
	"slices"
)

// Edge is a candidate pairing between left item A and right item B with a
// non-negative cost.
type Edge struct {
	A, B int
	Cost float64
}

// Pair is one matched (A, B) with its cost.
type Pair struct {
	A, B int
	Cost float64
}

// SparseShape describes the candidate graph one MatchSparse call solved.
type SparseShape struct {
	// Components is the number of connected components holding an edge.
	Components int
	// LargestLeft × LargestRight are the sides of the component with the
	// most left·right cells — the matrix a dense solve would have filled.
	LargestLeft, LargestRight int
}

// MatchSparse computes a maximum-cardinality, minimum-cost matching over a
// sparse bipartite candidate graph with nA left and nB right items, and
// reports the graph's component shape. Items with no incident edge stay
// unmatched. The matching has the cardinality and total cost a dense Solve
// would produce with absent edges set to Forbidden, but no matrix is built:
// left items are added one at a time along a shortest augmenting path found
// by Dijkstra over the adjacency lists, so time is O(augmentations × edges
// explored · log) and memory is O(nA + nB + edges), however large the
// connected components are.
//
// Cardinality dominates cost: every left item owns a private dummy partner
// whose cost exceeds any sum of real edges in its component, so leaving an
// item unmatched is chosen only when no augmenting path exists — mirroring
// thresholded linear sum assignment where leaving a feasible pair unmatched
// is never optimal.
//
// The result depends on the edge set only: edges are sorted by (A, B), the
// cheapest of duplicate edges is kept, and equal path lengths are broken by
// node id. Where several matchings are optimal the one chosen may differ
// from the dense solver's.
func MatchSparse(nA, nB int, edges []Edge) ([]Pair, SparseShape) {
	if len(edges) == 0 {
		return nil, SparseShape{}
	}
	edges = canonicalEdges(edges)

	// CSR adjacency of the left side: row a's edges are
	// cols/costs[start[a]:start[a+1]], ascending by column.
	start := make([]int, nA+1)
	for _, e := range edges {
		start[e.A+1]++
	}
	for a := 0; a < nA; a++ {
		start[a+1] += start[a]
	}
	cols := make([]int, len(edges))
	costs := make([]float64, len(edges))
	for k, e := range edges {
		cols[k], costs[k] = e.B, e.Cost
	}

	// Connected components bound the dummy cost: bigger than any possible
	// sum of real edges in the component, small enough that the potential
	// arithmetic keeps its precision. Left nodes are [0, nA); right nodes
	// are nA + b.
	uf := newUnionFind(nA + nB)
	for _, e := range edges {
		uf.union(e.A, nA+e.B)
	}
	big := make([]float64, nA+nB) // by component root
	for _, e := range edges {
		big[uf.find(e.A)] += e.Cost
	}
	for r := range big {
		big[r] = 2 * (1 + big[r])
	}

	s := newSparseSolver(nA, nB, start, cols, costs)
	for a := 0; a < nA; a++ {
		if start[a] < start[a+1] {
			s.augment(a, big[uf.find(a)])
		}
	}

	var out []Pair
	for a, k := range s.edgeOf {
		if k >= 0 {
			out = append(out, Pair{A: a, B: cols[k], Cost: costs[k]})
		}
	}
	return out, componentShape(uf, nA)
}

// canonicalEdges returns the edges sorted by (A, B) with the cheapest of
// each duplicate kept, leaving the caller's slice untouched.
func canonicalEdges(edges []Edge) []Edge {
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, func(x, y Edge) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B), cmp.Compare(x.Cost, y.Cost))
	})
	out := sorted[:1]
	for _, e := range sorted[1:] {
		if last := out[len(out)-1]; e.A != last.A || e.B != last.B {
			out = append(out, e)
		}
	}
	return out
}

// componentShape counts the components holding an edge and finds the one
// with the most left·right cells (ties: the smallest root).
func componentShape(uf *unionFind, nA int) SparseShape {
	var shape SparseShape
	left := make([]int, len(uf.parent)) // by component root
	for a := 0; a < nA; a++ {
		left[uf.find(a)]++
	}
	for r, l := range left {
		right := uf.size[r] - l
		if l == 0 || right == 0 {
			continue // not a root, or an isolated node
		}
		shape.Components++
		if l*right > shape.LargestLeft*shape.LargestRight {
			shape.LargestLeft, shape.LargestRight = l, right
		}
	}
	return shape
}

// dummy marks a left node assigned to its private dummy partner.
const dummy = -2

// sparseSolver holds the assignment state and the Dijkstra scratch of one
// MatchSparse call. u and v are the dual potentials of left and right
// nodes; reduced costs cost − u − v stay non-negative and are zero on
// matched edges, which is what makes each shortest augmenting path keep
// the partial assignment optimal.
type sparseSolver struct {
	start []int
	cols  []int
	costs []float64

	u, v   []float64
	edgeOf []int // left → CSR index of its matched edge, -1 free, dummy
	rowOf  []int // right → matched left node, -1 free

	// Per-augmentation scratch, reset through the touched lists.
	dist     []float64 // right → shortest reduced distance found so far
	predEdge []int     // right → CSR index of the edge that set dist
	predRow  []int     // right → left node that edge leaves from
	done     []bool    // right → popped and scanned
	touched  []int     // right nodes whose dist was set
	rows     []int     // left nodes scanned, with
	rowDist  []float64 // their distances from the source
	frontier distHeap
}

func newSparseSolver(nA, nB int, start, cols []int, costs []float64) *sparseSolver {
	s := &sparseSolver{
		start: start, cols: cols, costs: costs,
		u: make([]float64, nA), v: make([]float64, nB),
		edgeOf: make([]int, nA), rowOf: make([]int, nB),
		dist: make([]float64, nB), predEdge: make([]int, nB), predRow: make([]int, nB),
		done: make([]bool, nB),
	}
	for a := range s.edgeOf {
		s.edgeOf[a] = -1
	}
	for b := range s.rowOf {
		s.rowOf[b] = -1
		s.dist[b] = math.Inf(1)
	}
	return s
}

// augment adds left node src to the assignment along the shortest path, in
// reduced costs, from src to a free partner: a free right node, or the
// private dummy (cost big) of any left node on the way.
func (s *sparseSolver) augment(src int, big float64) {
	// Best dummy ending so far: through left node sinkRow at length sink.
	sink, sinkRow := math.Inf(1), -1
	scan := func(row int, d float64) {
		s.rows = append(s.rows, row)
		s.rowDist = append(s.rowDist, d)
		if end := d + big - s.u[row]; end < sink {
			sink, sinkRow = end, row
		}
		for k := s.start[row]; k < s.start[row+1]; k++ {
			b := s.cols[k]
			if s.done[b] {
				continue
			}
			if nd := d + s.costs[k] - s.u[row] - s.v[b]; nd < s.dist[b] {
				if math.IsInf(s.dist[b], 1) {
					s.touched = append(s.touched, b)
				}
				s.dist[b], s.predEdge[b], s.predRow[b] = nd, k, row
				s.frontier.push(distEntry{d: nd, node: b})
			}
		}
	}

	scan(src, 0)
	end := -1 // the free right node the path ends at; -1: sinkRow's dummy
	for len(s.frontier) > 0 {
		top := s.frontier.pop()
		b := top.node
		if s.done[b] || top.d > s.dist[b] {
			continue // superseded entry
		}
		if top.d > sink {
			break
		}
		if s.rowOf[b] < 0 {
			sink, end = top.d, b
			break
		}
		s.done[b] = true
		scan(s.rowOf[b], top.d)
	}

	// Re-weight the explored part so that the path is tight and every
	// other reduced cost stays non-negative.
	for i, row := range s.rows {
		s.u[row] += sink - s.rowDist[i]
	}
	for _, b := range s.touched {
		if s.done[b] {
			s.v[b] -= sink - s.dist[b]
		}
	}

	// Flip the path back to src.
	row := sinkRow
	if end >= 0 {
		row = s.predRow[end]
	}
	next := end // the partner row takes; -1 is its dummy
	for {
		prev := s.edgeOf[row]
		if next < 0 {
			s.edgeOf[row] = dummy
		} else {
			s.edgeOf[row] = s.predEdge[next]
			s.rowOf[next] = row
		}
		if row == src {
			break
		}
		next = s.cols[prev]
		row = s.predRow[next]
	}

	for _, b := range s.touched {
		s.dist[b] = math.Inf(1)
		s.done[b] = false
	}
	s.touched = s.touched[:0]
	s.rows = s.rows[:0]
	s.rowDist = s.rowDist[:0]
	s.frontier = s.frontier[:0]
}

// distEntry is a right node at a tentative distance.
type distEntry struct {
	d    float64
	node int
}

// distHeap is a binary min-heap of entries ordered by distance, then node
// id, so equal-length paths resolve the same way whatever order the edges
// arrived in. (container/heap would box every entry pushed.)
type distHeap []distEntry

func (e distEntry) less(o distEntry) bool {
	if e.d != o.d {
		return e.d < o.d
	}
	return e.node < o.node
}

func (h *distHeap) push(e distEntry) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].less(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *distHeap) pop() distEntry {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		small := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if q[c].less(q[small]) {
				small = c
			}
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	*h = q
	return top
}

// unionFind is a standard disjoint-set structure with path compression and
// union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}
