package table

import (
	"maps"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzReadCSV checks that arbitrary input never panics the reader and that
// whatever parses also survives a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n")
	f.Add("city,country\nBerlin,\n\"quo\"\"ted\",x\n")
	f.Add("⊥,NULL\nn/a,none\n")
	f.Add("\n\n\n")
	f.Add("a\tb\n1\t2\n")
	f.Add("col,col\ndup,dup\n")
	f.Fuzz(func(t *testing.T, input string) {
		tb, err := ReadCSV(strings.NewReader(input), "fuzz", ReadOptions{})
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		if err := tb.Validate(); err != nil {
			// Duplicate header names parse but fail validation; fine.
			return
		}
		var buf strings.Builder
		if err := WriteCSV(&buf, tb, WriteOptions{NullAs: NullToken}); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := ReadCSV(strings.NewReader(buf.String()), "fuzz", ReadOptions{})
		if err != nil {
			t.Fatalf("re-read own output: %v\noutput: %q", err, buf.String())
		}
		if back.NumRows() != tb.NumRows() || back.NumCols() != tb.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				tb.NumRows(), tb.NumCols(), back.NumRows(), back.NumCols())
		}
	})
}

// FuzzReadJSONL checks the daemon's parser for untrusted table bodies: it
// never panics, every accepted row is as wide as the columns and within
// MaxRows, and whatever parses survives a WriteJSONL/ReadJSONL round trip
// with its row count and non-null cells intact. Invalid UTF-8 is exempt
// from the round trip: JSON output cannot carry it, so the writer
// substitutes U+FFFD.
func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"id":"1","name":"alice"}`+"\n"+`{"id":"2","city":"oslo"}`, uint16(0), uint8(0))
	f.Add(`{"k":"a","k":"b"}`, uint16(0), uint8(0))                          // duplicate key
	f.Add(`{"n":1,"b":true,"z":null,"o":{"x":[1, 2]}}`, uint16(0), uint8(0)) // non-string values
	f.Add(`{"a":"1"}`+"\n\n  \n"+`{"a":"2"}`+"\n", uint16(0), uint8(0))      // blank lines
	f.Add(`{"a":"short"}`+"\n"+`{"a":"`+strings.Repeat("x", 64)+`"}`, uint16(32), uint8(0))
	f.Add(`{"a":"1"}`+"\n"+`{"a":"2"}`+"\n"+`{"a":"3"}`, uint16(0), uint8(2)) // past MaxRows
	f.Fuzz(func(t *testing.T, input string, maxLine uint16, maxRows uint8) {
		lim := JSONLLimits{MaxLineBytes: int(maxLine), MaxRows: int(maxRows)}
		tb, err := ReadJSONLLimited(strings.NewReader(input), "fuzz", lim)
		if err != nil {
			return // malformed or over-limit input is allowed to fail, not to panic
		}
		if lim.MaxRows > 0 && tb.NumRows() > lim.MaxRows {
			t.Fatalf("accepted %d rows past MaxRows %d", tb.NumRows(), lim.MaxRows)
		}
		for i, row := range tb.Rows {
			if len(row) != tb.NumCols() {
				t.Fatalf("row %d has %d cells, want %d", i, len(row), tb.NumCols())
			}
		}
		if !utf8.ValidString(input) {
			return
		}
		var buf strings.Builder
		if err := WriteJSONL(&buf, tb); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := ReadJSONL(strings.NewReader(buf.String()), "fuzz")
		if err != nil {
			t.Fatalf("re-read own output: %v\noutput: %q", err, buf.String())
		}
		if back.NumRows() != tb.NumRows() {
			t.Fatalf("round trip changed the row count: %d -> %d", tb.NumRows(), back.NumRows())
		}
		for i := range tb.Rows {
			if a, b := RowObject(tb.Columns, tb.Rows[i]), RowObject(back.Columns, back.Rows[i]); !maps.Equal(a, b) {
				t.Fatalf("round trip changed row %d: %v -> %v", i, a, b)
			}
		}
	})
}

// FuzzInfer checks that column inference over any CSV the reader accepts
// never panics and that every column's counts add up: nulls and non-null
// cells cover the rows, distinct values fit among the non-null cells, and
// the most frequent value's count and the length bounds are consistent.
func FuzzInfer(f *testing.F) {
	f.Add("a,b\n1,2\n")
	f.Add("n,x,b\n1,1.5,true\n2,,no\n-3,2e9,YES\n")
	f.Add("city,country\nBerlin,\nBerlin,DE\n,\n")
	f.Add("⊥,NULL\nn/a,none\n")
	f.Add("v\n 7 \n7\nNaN\ninf\n")
	f.Fuzz(func(t *testing.T, input string) {
		tb, err := ReadCSV(strings.NewReader(input), "fuzz", ReadOptions{})
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		stats := Infer(tb)
		if len(stats) != tb.NumCols() {
			t.Fatalf("%d column stats for %d columns", len(stats), tb.NumCols())
		}
		for i, st := range stats {
			nonNull := st.Rows - st.Nulls
			switch {
			case st.Rows != tb.NumRows() || st.Nulls < 0 || nonNull < 0:
				t.Fatalf("column %d: %d rows, %d nulls; the table has %d rows", i, st.Rows, st.Nulls, tb.NumRows())
			case st.Distinct > nonNull || nonNull > 0 && st.Distinct == 0:
				t.Fatalf("column %d: %d distinct values among %d non-null cells", i, st.Distinct, nonNull)
			case st.TopCount > nonNull || nonNull > 0 && (st.TopCount == 0 || st.TopCount < (nonNull+st.Distinct-1)/st.Distinct):
				t.Fatalf("column %d: top value count %d among %d non-null cells, %d distinct", i, st.TopCount, nonNull, st.Distinct)
			case len(st.Exemplars) != min(st.Distinct, 5):
				t.Fatalf("column %d: %d exemplars for %d distinct values", i, len(st.Exemplars), st.Distinct)
			case st.MinLen > st.MaxLen || st.MinLen < 0:
				t.Fatalf("column %d: length bounds %d..%d", i, st.MinLen, st.MaxLen)
			case nonNull > 0 && (st.MeanLen < float64(st.MinLen) || st.MeanLen > float64(st.MaxLen)):
				t.Fatalf("column %d: mean length %v outside %d..%d", i, st.MeanLen, st.MinLen, st.MaxLen)
			case (st.Kind == KindEmpty) != (nonNull == 0):
				t.Fatalf("column %d: kind %v with %d non-null cells", i, st.Kind, nonNull)
			}
		}
	})
}
