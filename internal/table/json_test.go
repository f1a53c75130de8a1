package table

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteJSONL(t *testing.T) {
	tb := New("t", "city", "pop")
	tb.MustAppendRow(S("Berlin"), S("3.7M"))
	tb.MustAppendRow(S("Toronto"), Null())
	var sb strings.Builder
	if err := WriteJSONL(&sb, tb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines=%v", lines)
	}
	if !strings.Contains(lines[0], `"city":"Berlin"`) {
		t.Errorf("line 0: %s", lines[0])
	}
	if strings.Contains(lines[1], "pop") {
		t.Errorf("null cell should be omitted: %s", lines[1])
	}
}

func TestReadJSONL(t *testing.T) {
	in := `{"city":"Berlin","pop":"3.7M"}
{"city":"Toronto"}
{"country":"Spain","city":"Madrid"}`
	tb, err := ReadJSONL(strings.NewReader(in), "j")
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 {
		t.Fatalf("rows=%d", tb.NumRows())
	}
	if tb.ColumnIndex("country") < 0 {
		t.Errorf("union schema missing country: %v", tb.Columns)
	}
	if !tb.Rows[1][tb.ColumnIndex("pop")].IsNull {
		t.Error("missing key should read as null")
	}
	if tb.Rows[2][tb.ColumnIndex("country")].Val != "Spain" {
		t.Errorf("row 2: %v", tb.Rows[2])
	}
}

func TestReadJSONLNonStringValues(t *testing.T) {
	in := `{"n":42,"b":true,"s":"x"}`
	tb, err := ReadJSONL(strings.NewReader(in), "j")
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	if row[tb.ColumnIndex("n")].Val != "42" || row[tb.ColumnIndex("b")].Val != "true" {
		t.Errorf("row=%v", row)
	}
}

// TestReadJSONLNullMember: a member whose value is null is a column with a
// null cell, not an empty string two rows could join on.
func TestReadJSONLNullMember(t *testing.T) {
	in := `{"k":"1","a":null}` + "\n" + `{"k":"2", "a" : null ,"b":"x"}`
	tb, err := ReadJSONL(strings.NewReader(in), "j")
	if err != nil {
		t.Fatal(err)
	}
	a := tb.ColumnIndex("a")
	if a < 0 {
		t.Fatalf("null member's key missing from schema %v", tb.Columns)
	}
	for i, row := range tb.Rows {
		if !row[a].IsNull {
			t.Errorf("row %d: a = %q, want null", i, row[a].Val)
		}
	}
	if tb.Rows[1][tb.ColumnIndex("b")].Val != "x" {
		t.Errorf("row 1: %v", tb.Rows[1])
	}
}

// TestReadJSONLEscapes: escape sequences in keys and values decode as
// encoding/json decodes them, a surrogate outside a \u-escaped pair
// reading U+FFFD.
func TestReadJSONLEscapes(t *testing.T) {
	for _, lit := range []string{
		`"Z\u00fcrich"`, `"Z\u00FCrich"`, `"\ud83d\ude00"`, `"\ud83d"`, `"\ude00"`, `"\ud83dx"`,
		`"\ud83d\u0041"`, `"\ud83d\ud83d\ude00"`, `"\"\\\/\b\f\n\r\t"`, `"a\u0000b"`,
	} {
		var want string
		if err := json.Unmarshal([]byte(lit), &want); err != nil {
			t.Fatal(err)
		}
		tb, err := ReadJSONL(strings.NewReader(`{"\u0061":`+lit+`}`), "j")
		if err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		if !slices.Equal(tb.Columns, []string{"a"}) || tb.Rows[0][0].Val != want {
			t.Errorf("%s: columns %q, value %q; want [a], %q", lit, tb.Columns, tb.Rows[0][0].Val, want)
		}
	}
	for _, bad := range []string{`{"a":"\x"}`, `{"a":"\u12"}`, `{"a":"\u12g4"}`, `{"a":"\ud83d\u12"}`} {
		if _, err := ReadJSONL(strings.NewReader(bad), "j"); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

// A line whose values hold escape sequences stays on the flat path: about
// one allocation per row, as for a line without them.
func TestReadJSONLEscapedRowAllocs(t *testing.T) {
	const rows = 1000
	var sb strings.Builder
	for i := range rows {
		fmt.Fprintf(&sb, `{"id":"%d","city":"Z\u00fcrich"}`+"\n", i)
	}
	body := sb.String()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadJSONL(strings.NewReader(body), "j"); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / rows; perRow > 3 {
		t.Errorf("%.1f allocations per escaped row, want at most 3", perRow)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{bad json"), "j"); err == nil {
		t.Error("malformed input accepted")
	}
	tb, err := ReadJSONL(strings.NewReader(""), "j")
	if err != nil || tb.NumRows() != 0 {
		t.Errorf("empty input: %v %v", tb, err)
	}
}

func TestReadJSONLNamesOffendingLine(t *testing.T) {
	in := "{\"a\":\"1\"}\n\n{\"a\":\"2\"}\n{broken\n"
	_, err := ReadJSONL(strings.NewReader(in), "j")
	if err == nil {
		t.Fatal("malformed line accepted")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error does not name line 4: %v", err)
	}
}

// TestReadJSONLRejectsNull: a line reading null decodes into a nil map
// without error, but it is no row; it fails with its line number, alone or
// after a row.
func TestReadJSONLRejectsNull(t *testing.T) {
	for in, line := range map[string]string{
		"null":                    "line 1",
		"{\"a\":\"1\"}\nnull":     "line 2",
		"{\"a\":\"1\"}\n\n null ": "line 3",
	} {
		tb, err := ReadJSONL(strings.NewReader(in), "j")
		if err == nil || !strings.Contains(err.Error(), line) || !strings.Contains(err.Error(), "not a JSON object") {
			t.Errorf("%q: table %v, error %v; want a %s error", in, tb, err, line)
		}
	}
}

func TestReadJSONLBlankLinesSkipped(t *testing.T) {
	in := "\n{\"a\":\"1\"}\n   \n{\"a\":\"2\"}\n\n"
	tb, err := ReadJSONL(strings.NewReader(in), "j")
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows=%d, want 2", tb.NumRows())
	}
}

func TestReadJSONLLimits(t *testing.T) {
	long := `{"a":"` + strings.Repeat("x", 100) + `"}`
	_, err := ReadJSONLLimited(strings.NewReader("{\"a\":\"1\"}\n"+long), "j",
		JSONLLimits{MaxLineBytes: 64})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("oversized line not rejected with its line number: %v", err)
	}

	_, err = ReadJSONLLimited(strings.NewReader("{\"a\":\"1\"}\n{\"a\":\"2\"}\n{\"a\":\"3\"}"), "j",
		JSONLLimits{MaxRows: 2})
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "row limit") {
		t.Errorf("row limit not enforced at line 3: %v", err)
	}

	tb, err := ReadJSONLLimited(strings.NewReader("{\"a\":\"1\"}\n{\"a\":\"2\"}"), "j",
		JSONLLimits{MaxRows: 2, MaxLineBytes: 64})
	if err != nil || tb.NumRows() != 2 {
		t.Errorf("input within limits rejected: %v %v", tb, err)
	}

	// Every non-positive MaxRows means unlimited, as the zero value does.
	tb, err = ReadJSONLLimited(strings.NewReader("{\"a\":\"1\"}\n{\"a\":\"2\"}\n{\"a\":\"3\"}"), "j",
		JSONLLimits{MaxRows: -1})
	if err != nil || tb.NumRows() != 3 {
		t.Errorf("MaxRows -1 did not read all rows: %v %v", tb, err)
	}
}

// Property: JSONL round-trips any table (modulo column order, which the
// reader unions in sorted-first-seen order, and the name).
func TestJSONLRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orig := randomTable(r)
		// Empty-string cells are indistinguishable from... no: empty
		// strings survive JSONL (explicit ""), unlike CSV. Keep as is.
		var sb strings.Builder
		if err := WriteJSONL(&sb, orig); err != nil {
			return false
		}
		back, err := ReadJSONL(strings.NewReader(sb.String()), orig.Name)
		if err != nil {
			return false
		}
		if back.NumRows() != orig.NumRows() {
			return false
		}
		// Compare projected onto the original column order; columns that
		// were entirely null are absent from the round trip.
		for i, row := range orig.Rows {
			for c, cell := range row {
				bc := back.ColumnIndex(orig.Columns[c])
				if bc < 0 {
					if !cell.IsNull {
						return false
					}
					continue
				}
				if !back.Rows[i][bc].Equal(cell) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
