package table

import (
	"strconv"
	"strings"
)

// Kind is an inferred column type.
type Kind int

// Column kinds, from most to least specific. Inference picks the most
// specific kind that every non-null value in the column satisfies.
const (
	KindEmpty Kind = iota // no non-null values
	KindInt
	KindFloat
	KindBool
	KindString
)

// String returns the lowercase kind name.
func (k Kind) String() string {
	switch k {
	case KindEmpty:
		return "empty"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return "string"
	}
}

// KindsCompatible reports whether columns of kinds a and b may hold the
// same attribute: clearly incompatible content types are kept apart (a
// numeric column never pairs with a text column), and an empty column is
// compatible with anything.
func KindsCompatible(a, b Kind) bool {
	if a == KindEmpty || b == KindEmpty || a == b {
		return true
	}
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	return numeric(a) && numeric(b)
}

// kindOf classifies a single value.
func kindOf(s string) Kind {
	if _, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64); err == nil {
		return KindInt
	}
	if _, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
		return KindFloat
	}
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "true", "false", "yes", "no":
		return KindBool
	}
	return KindString
}

// unify returns the most specific kind compatible with both.
func unify(a, b Kind) Kind {
	if a == KindEmpty {
		return b
	}
	if b == KindEmpty {
		return a
	}
	if a == b {
		return a
	}
	// Ints widen to floats; everything else degrades to string.
	if (a == KindInt && b == KindFloat) || (a == KindFloat && b == KindInt) {
		return KindFloat
	}
	return KindString
}

// ColumnStats summarizes one column for inspection and alignment heuristics.
type ColumnStats struct {
	Name      string
	Kind      Kind
	Rows      int // total rows
	Nulls     int // null cells
	Distinct  int // distinct non-null values
	MeanLen   float64
	MinLen    int
	MaxLen    int
	TopValue  string // most frequent non-null value
	TopCount  int
	Exemplars []string // up to 5 distinct values in first-seen order
}

// InferColumn computes stats for column i of t.
func InferColumn(t *Table, i int) ColumnStats {
	st := ColumnStats{Name: t.Columns[i], Rows: len(t.Rows), MinLen: -1}
	counts := make(map[string]int)
	var totalLen int
	var nonNull int
	for _, row := range t.Rows {
		c := row[i]
		if c.IsNull {
			st.Nulls++
			continue
		}
		nonNull++
		st.Kind = unify(st.Kind, kindOf(c.Val))
		l := len(c.Val)
		totalLen += l
		if st.MinLen < 0 || l < st.MinLen {
			st.MinLen = l
		}
		if l > st.MaxLen {
			st.MaxLen = l
		}
		if counts[c.Val] == 0 && len(st.Exemplars) < 5 {
			st.Exemplars = append(st.Exemplars, c.Val)
		}
		counts[c.Val]++
		if counts[c.Val] > st.TopCount {
			st.TopCount = counts[c.Val]
			st.TopValue = c.Val
		}
	}
	st.Distinct = len(counts)
	if nonNull > 0 {
		st.MeanLen = float64(totalLen) / float64(nonNull)
	}
	if st.MinLen < 0 {
		st.MinLen = 0
	}
	return st
}

// Infer computes stats for every column of t.
func Infer(t *Table) []ColumnStats {
	out := make([]ColumnStats, len(t.Columns))
	for i := range t.Columns {
		out[i] = InferColumn(t, i)
	}
	return out
}
