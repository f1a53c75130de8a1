package table

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCellEqual(t *testing.T) {
	cases := []struct {
		a, b Cell
		want bool
	}{
		{S("a"), S("a"), true},
		{S("a"), S("b"), false},
		{S(""), S(""), true},
		{Null(), Null(), true},
		{Null(), S("a"), false},
		{S("a"), Null(), false},
		{Null(), S(""), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCellString(t *testing.T) {
	if got := Null().String(); got != NullToken {
		t.Errorf("Null().String()=%q want %q", got, NullToken)
	}
	if got := S("x").String(); got != "x" {
		t.Errorf("S(x).String()=%q", got)
	}
}

func TestAppendRowWidthCheck(t *testing.T) {
	tb := New("t", "a", "b")
	if err := tb.AppendRow(Row{S("1")}); !errors.Is(err, ErrRowWidth) {
		t.Fatalf("want ErrRowWidth, got %v", err)
	}
	if err := tb.AppendRow(Row{S("1"), Null()}); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if tb.NumRows() != 1 || tb.NumCols() != 2 {
		t.Fatalf("NumRows/NumCols mismatch: %d %d", tb.NumRows(), tb.NumCols())
	}
}

func TestColumnAccessors(t *testing.T) {
	tb := New("t", "a", "b")
	tb.MustAppendRow(S("x"), S("1"))
	tb.MustAppendRow(Null(), S("2"))
	tb.MustAppendRow(S("x"), Null())
	if got := tb.ColumnIndex("b"); got != 1 {
		t.Errorf("ColumnIndex(b)=%d", got)
	}
	if got := tb.ColumnIndex("zz"); got != -1 {
		t.Errorf("ColumnIndex(zz)=%d", got)
	}
	if got := tb.ColumnValues(0); !reflect.DeepEqual(got, []string{"x", "x"}) {
		t.Errorf("ColumnValues(0)=%v", got)
	}
	vals, counts := tb.DistinctColumnValues(0)
	if !reflect.DeepEqual(vals, []string{"x"}) || !reflect.DeepEqual(counts, []int{2}) {
		t.Errorf("DistinctColumnValues=%v %v", vals, counts)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tb := New("t", "a")
	tb.MustAppendRow(S("x"))
	cp := tb.Clone()
	cp.Rows[0][0] = S("y")
	cp.Columns[0] = "z"
	if tb.Rows[0][0].Val != "x" || tb.Columns[0] != "a" {
		t.Fatal("Clone aliases the original")
	}
	if !tb.Equal(tb.Clone()) {
		t.Fatal("table not Equal to its clone")
	}
}

func TestEqualRowsUnordered(t *testing.T) {
	a := New("x", "c1", "c2")
	a.MustAppendRow(S("1"), S("2"))
	a.MustAppendRow(Null(), S("3"))
	b := New("y", "c1", "c2")
	b.MustAppendRow(Null(), S("3"))
	b.MustAppendRow(S("1"), S("2"))
	if !a.EqualRowsUnordered(b) {
		t.Fatal("permuted rows should compare equal")
	}
	b.MustAppendRow(S("1"), S("2"))
	if a.EqualRowsUnordered(b) {
		t.Fatal("different multiplicities should not compare equal")
	}
}

func TestProject(t *testing.T) {
	tb := New("t", "a", "b", "c")
	tb.MustAppendRow(S("1"), S("2"), S("3"))
	p, err := tb.Project(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Columns, []string{"c", "a"}) {
		t.Errorf("projected columns=%v", p.Columns)
	}
	if p.Rows[0][0].Val != "3" || p.Rows[0][1].Val != "1" {
		t.Errorf("projected row=%v", p.Rows[0])
	}
	if _, err := tb.Project(5); err == nil {
		t.Error("out-of-range projection should fail")
	}
}

func TestValidate(t *testing.T) {
	ok := New("t", "a", "b")
	ok.MustAppendRow(S("1"), S("2"))
	if err := ok.Validate(); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
	dup := New("t", "a", "a")
	if err := dup.Validate(); err == nil {
		t.Error("duplicate columns accepted")
	}
	empty := New("t", "a", "")
	if err := empty.Validate(); err == nil {
		t.Error("empty column name accepted")
	}
	ragged := New("t", "a", "b")
	ragged.Rows = append(ragged.Rows, Row{S("1")})
	if err := ragged.Validate(); err == nil {
		t.Error("ragged row accepted")
	}
}

func TestNullCount(t *testing.T) {
	tb := New("t", "a", "b")
	tb.MustAppendRow(Null(), S("1"))
	tb.MustAppendRow(Null(), Null())
	if got := tb.NullCount(); got != 3 {
		t.Errorf("NullCount=%d want 3", got)
	}
}

// randomTable builds an arbitrary small table from a rand source, for
// property tests.
func randomTable(r *rand.Rand) *Table {
	nc := 1 + r.Intn(5)
	cols := make([]string, nc)
	for i := range cols {
		cols[i] = string(rune('a'+i)) + "col"
	}
	t := New("rt", cols...)
	nr := r.Intn(12)
	alphabet := []string{"x", "y", "zed", "Hello, world", "a\"b", "comma,val", "new\nline", "  spaced  ", "héllo"}
	for i := 0; i < nr; i++ {
		row := make(Row, nc)
		for j := range row {
			if r.Intn(4) == 0 {
				row[j] = Null()
			} else {
				row[j] = S(alphabet[r.Intn(len(alphabet))])
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func TestInferColumnKinds(t *testing.T) {
	tb := New("t", "i", "f", "m", "s", "b", "e")
	tb.MustAppendRow(S("1"), S("1.5"), S("2"), S("abc"), S("true"), Null())
	tb.MustAppendRow(S("-3"), S("2e3"), S("3.5"), S("1x"), S("no"), Null())
	st := Infer(tb)
	want := []Kind{KindInt, KindFloat, KindFloat, KindString, KindBool, KindEmpty}
	for i, k := range want {
		if st[i].Kind != k {
			t.Errorf("column %d kind=%v want %v", i, st[i].Kind, k)
		}
	}
}

func TestInferStats(t *testing.T) {
	tb := New("t", "a")
	tb.MustAppendRow(S("xx"))
	tb.MustAppendRow(S("xx"))
	tb.MustAppendRow(S("yyyy"))
	tb.MustAppendRow(Null())
	st := InferColumn(tb, 0)
	if st.Distinct != 2 || st.Nulls != 1 || st.TopValue != "xx" || st.TopCount != 2 {
		t.Errorf("stats=%+v", st)
	}
	if st.MinLen != 2 || st.MaxLen != 4 {
		t.Errorf("len stats=%+v", st)
	}
	wantMean := (2.0 + 2.0 + 4.0) / 3.0
	if st.MeanLen != wantMean {
		t.Errorf("MeanLen=%v want %v", st.MeanLen, wantMean)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{KindEmpty: "empty", KindInt: "int", KindFloat: "float", KindBool: "bool", KindString: "string"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v.String()=%q want %q", int(k), k.String(), want)
		}
	}
}

// Property: any table survives a CSV write/read round trip (modulo the
// table name, which is supplied by the reader).
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orig := randomTable(r)
		// Empty strings round-trip as nulls by design; normalize first.
		for _, row := range orig.Rows {
			for j := range row {
				if !row[j].IsNull && row[j].Val == "" {
					row[j] = Null()
				}
			}
		}
		var buf writerBuffer
		if err := WriteCSV(&buf, orig, WriteOptions{NullAs: NullToken}); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		back, err := ReadCSV(buf.reader(), orig.Name, ReadOptions{})
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return orig.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
