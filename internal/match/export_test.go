package match

import "math"

// Path is an assignment path a test pins a Matcher to: the dense limit is
// set above or below every round's |reps|·|values|.
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
