package match

import (
	"math"

	"fuzzyfd/internal/assign"
)

// Path is a candidate path a test pins a Matcher to: the dense limit is set
// above or below every round's |reps|·|values|.
type Path int

const (
	Dense  Path = math.MaxInt
	Sparse Path = -1
)

// Pin makes every round of m take path p, whatever the round's size.
func (m *Matcher) Pin(p Path) *Matcher {
	m.denseLimit = int(p)
	return m
}

// RoundEdges returns one round's edges under θ both ways, scored by m's
// scorer on a fresh memo: blocked from the blocked path's candidate pairs,
// dense from every pair the dense path scores.
func (m *Matcher) RoundEdges(reps, values []string, theta float64) (blocked, dense []assign.Edge) {
	r := newRun(m.scorer(), nil)
	return r.blockedEdges(reps, values, theta), r.denseEdges(reps, values, theta)
}
