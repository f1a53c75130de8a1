package fd

import (
	"errors"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// ErrOracleTooLarge is returned by NaiveFD beyond its subset-enumeration
// budget.
var ErrOracleTooLarge = errors.New("fd: naive oracle limited to 16 outer-union tuples")

// NaiveFD computes the Full Disjunction directly from its definition, as a
// correctness oracle for property tests: enumerate every subset of
// outer-union tuples that is pairwise consistent and connected (via the
// shares-an-equal-non-null-value relation), join each subset, then apply
// signature dedup and subsumption removal. Exponential — inputs are limited
// to 16 outer-union tuples.
//
// The provenance of each output row is the union of the TIDs of every
// enumerated subset that joins to those exact cells or to a subsumed
// version of them, matching FullDisjunction's provenance-folding semantics.
func NaiveFD(tables []*table.Table, schema Schema) (*Result, error) {
	if err := schema.Validate(tables); err != nil {
		return nil, err
	}
	eng, base := outerUnion(tables, schema)
	n := len(base)
	if n > 16 {
		return nil, ErrOracleTooLarge
	}
	nCols := len(schema.Columns)

	// Pairwise relations.
	consistent := make([][]bool, n)
	connected := make([][]bool, n)
	for i := range consistent {
		consistent[i] = make([]bool, n)
		connected[i] = make([]bool, n)
		for j := range consistent[i] {
			if i == j {
				continue
			}
			ok := true
			conn := false
			for c := 0; c < nCols; c++ {
				a, b := base[i].Cells[c], base[j].Cells[c]
				if a == intern.Null || b == intern.Null {
					continue
				}
				if a != b {
					ok = false
					break
				}
				conn = true
			}
			consistent[i][j] = ok
			connected[i][j] = ok && conn
		}
	}

	isValid := func(mask uint32) bool {
		var members []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				members = append(members, i)
			}
		}
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				if !consistent[members[a]][members[b]] {
					return false
				}
			}
		}
		// Connectivity over the connected-pair graph restricted to members.
		if len(members) <= 1 {
			return true
		}
		reach := map[int]bool{members[0]: true}
		queue := []int{members[0]}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range members {
				if !reach[y] && connected[x][y] {
					reach[y] = true
					queue = append(queue, y)
				}
			}
		}
		return len(reach) == len(members)
	}

	joinOf := func(mask uint32) Tuple {
		cells := make([]uint32, nCols) // zero-valued = all null
		var prov []TID
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for c, sym := range base[i].Cells {
				if sym != intern.Null {
					cells[c] = sym
				}
			}
			prov = mergeProv(prov, base[i].Prov)
		}
		return Tuple{Cells: cells, Prov: prov}
	}

	// Collect joins of all valid non-empty subsets, deduping by signature.
	sigs := newSigIndex()
	var tuples []Tuple
	for mask := uint32(1); mask < 1<<n; mask++ {
		if !isValid(mask) {
			continue
		}
		t := joinOf(mask)
		at, hash, ok := sigs.find(t.Cells, tuples)
		if ok {
			tuples[at].Prov = mergeProv(tuples[at].Prov, t.Prov)
			continue
		}
		sigs.addHashed(hash, len(tuples))
		tuples = append(tuples, t)
	}

	kept := eng.subsume(tuples)
	return eng.materialize(kept, schema, Stats{}), nil
}
