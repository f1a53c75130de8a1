// Package table implements the tabular substrate for data lake integration:
// in-memory tables with null-aware string cells, CSV/TSV input and output,
// light type inference, and pretty printing.
//
// Data lake tables (the paper's setting) are CSV files with unreliable
// headers and missing values, so cells are strings plus an explicit null
// flag rather than typed columns. Type inference is provided separately for
// statistics and display.
package table

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// NullToken is the canonical external representation of a null cell, used by
// the CSV writer and the pretty printer. The CSV reader additionally accepts
// the empty string and a few common markers (see ReadCSV).
const NullToken = "⊥"

// ErrRowWidth is returned when a row's width does not match the table schema.
var ErrRowWidth = errors.New("table: row width does not match column count")

// Cell is a single table value: a string or null.
//
// The zero value is the empty (non-null) string. Use Null() for a null cell.
type Cell struct {
	Val    string
	IsNull bool
}

// S returns a non-null cell holding s.
func S(s string) Cell { return Cell{Val: s} }

// Null returns a null cell.
func Null() Cell { return Cell{IsNull: true} }

// Equal reports whether two cells are identical. Nulls equal only nulls;
// this is the SQL-free, integration-oriented equality used by Full
// Disjunction's subsumption checks (null matches null, not a value).
func (c Cell) Equal(o Cell) bool {
	if c.IsNull || o.IsNull {
		return c.IsNull == o.IsNull
	}
	return c.Val == o.Val
}

// String renders the cell for display, using NullToken for nulls.
func (c Cell) String() string {
	if c.IsNull {
		return NullToken
	}
	return c.Val
}

// Row is one tuple of a table.
type Row []Cell

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is a named relation: an ordered list of column names and rows of
// cells. Rows always have exactly len(Columns) cells; use AppendRow to keep
// that invariant checked.
type Table struct {
	Name    string
	Columns []string
	Rows    []Row
}

// New returns an empty table with the given name and columns.
func New(name string, columns ...string) *Table {
	cols := make([]string, len(columns))
	copy(cols, columns)
	return &Table{Name: name, Columns: cols}
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return len(t.Rows) }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.Columns) }

// AppendRow adds a row after validating its width.
func (t *Table) AppendRow(r Row) error {
	if len(r) != len(t.Columns) {
		return fmt.Errorf("%w: got %d cells, want %d (table %q)", ErrRowWidth, len(r), len(t.Columns), t.Name)
	}
	t.Rows = append(t.Rows, r)
	return nil
}

// MustAppendRow adds a row and panics on width mismatch. Intended for
// literals in tests and examples where the width is statically correct.
func (t *Table) MustAppendRow(cells ...Cell) {
	if err := t.AppendRow(Row(cells)); err != nil {
		panic(err)
	}
}

// ColumnIndex returns the index of the named column, or -1 if absent.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// ColumnValues returns the non-null string values of column i in row order
// (duplicates preserved, nulls skipped).
func (t *Table) ColumnValues(i int) []string {
	out := make([]string, 0, len(t.Rows))
	for _, row := range t.Rows {
		if !row[i].IsNull {
			out = append(out, row[i].Val)
		}
	}
	return out
}

// DistinctColumnValues returns the distinct non-null values of column i with
// their occurrence counts, in first-seen order.
func (t *Table) DistinctColumnValues(i int) ([]string, []int) {
	var vals []string
	var counts []int
	seen := make(map[string]int)
	for _, row := range t.Rows {
		if row[i].IsNull {
			continue
		}
		if at, ok := seen[row[i].Val]; ok {
			counts[at]++
			continue
		}
		seen[row[i].Val] = len(vals)
		vals = append(vals, row[i].Val)
		counts = append(counts, 1)
	}
	return vals, counts
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := New(t.Name, t.Columns...)
	out.Rows = make([]Row, len(t.Rows))
	for i, r := range t.Rows {
		out.Rows[i] = r.Clone()
	}
	return out
}

// Equal reports whether two tables have identical name, schema, and rows in
// the same order.
func (t *Table) Equal(o *Table) bool {
	if t.Name != o.Name || len(t.Columns) != len(o.Columns) || len(t.Rows) != len(o.Rows) {
		return false
	}
	for i := range t.Columns {
		if t.Columns[i] != o.Columns[i] {
			return false
		}
	}
	for i := range t.Rows {
		if len(t.Rows[i]) != len(o.Rows[i]) {
			return false
		}
		for j := range t.Rows[i] {
			if !t.Rows[i][j].Equal(o.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// EqualRowsUnordered reports whether two tables hold the same multiset of
// rows under the same schema, ignoring row order. Useful in tests where
// algorithms are free to permute output.
func (t *Table) EqualRowsUnordered(o *Table) bool {
	if len(t.Columns) != len(o.Columns) || len(t.Rows) != len(o.Rows) {
		return false
	}
	for i := range t.Columns {
		if t.Columns[i] != o.Columns[i] {
			return false
		}
	}
	a := rowKeys(t)
	b := rowKeys(o)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func rowKeys(t *Table) []string {
	keys := make([]string, len(t.Rows))
	for i, r := range t.Rows {
		var sb strings.Builder
		for _, c := range r {
			if c.IsNull {
				sb.WriteString("\x00N")
			} else {
				sb.WriteString("\x00V")
				sb.WriteString(c.Val)
			}
		}
		keys[i] = sb.String()
	}
	sort.Strings(keys)
	return keys
}

// Project returns a new table containing only the given column indices, in
// the given order.
func (t *Table) Project(cols ...int) (*Table, error) {
	names := make([]string, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(t.Columns) {
			return nil, fmt.Errorf("table: project: column %d out of range [0,%d)", c, len(t.Columns))
		}
		names[i] = t.Columns[c]
	}
	out := New(t.Name, names...)
	for _, r := range t.Rows {
		nr := make(Row, len(cols))
		for i, c := range cols {
			nr[i] = r[c]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// Validate checks structural invariants: non-empty distinct column names and
// uniform row widths.
func (t *Table) Validate() error {
	seen := make(map[string]bool, len(t.Columns))
	for i, c := range t.Columns {
		if c == "" {
			return fmt.Errorf("table %q: column %d has empty name", t.Name, i)
		}
		if seen[c] {
			return fmt.Errorf("table %q: duplicate column name %q", t.Name, c)
		}
		seen[c] = true
	}
	for i, r := range t.Rows {
		if len(r) != len(t.Columns) {
			return fmt.Errorf("table %q: row %d: %w", t.Name, i, ErrRowWidth)
		}
	}
	return nil
}

// NullCount returns the number of null cells in the table.
func (t *Table) NullCount() int {
	n := 0
	for _, r := range t.Rows {
		for _, c := range r {
			if c.IsNull {
				n++
			}
		}
	}
	return n
}
