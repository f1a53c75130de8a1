package datagen

import (
	"math/rand"
	"strings"
	"testing"

	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/match"
)

func TestTopicsCount(t *testing.T) {
	topics := Topics()
	if len(topics) != 17 {
		t.Fatalf("want 17 topics (as in Auto-Join), got %d", len(topics))
	}
	seen := map[string]bool{}
	for _, tp := range topics {
		if seen[tp.Name] {
			t.Errorf("duplicate topic %q", tp.Name)
		}
		seen[tp.Name] = true
	}
}

func TestTopicValuesDistinct(t *testing.T) {
	for _, tp := range Topics() {
		r := rand.New(rand.NewSource(42))
		vals := tp.Values(100, r)
		if len(vals) == 0 {
			t.Errorf("topic %q produced no values", tp.Name)
		}
		seen := map[string]bool{}
		for _, v := range vals {
			if v == "" {
				t.Errorf("topic %q produced empty value", tp.Name)
			}
			if seen[v] {
				t.Errorf("topic %q produced duplicate %q", tp.Name, v)
			}
			seen[v] = true
		}
	}
}

func TestTransformsDeterministic(t *testing.T) {
	transforms := []Transform{
		Typo(1), LowerCase(1), UpperCase(1), AbbrevTerms(1), Initialism(1),
		LexSynonym(1), ReorderComma(1), PunctNoise(1), TruncateWord(1),
	}
	for _, tr := range transforms {
		a := tr.Apply("University of Springfield", rand.New(rand.NewSource(7)))
		b := tr.Apply("University of Springfield", rand.New(rand.NewSource(7)))
		if a != b {
			t.Errorf("%s is not deterministic: %q vs %q", tr.Name, a, b)
		}
	}
}

func TestTransformSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if got := LowerCase(1).Apply("AbC", r); got != "abc" {
		t.Errorf("LowerCase=%q", got)
	}
	if got := UpperCase(1).Apply("abc", r); got != "ABC" {
		t.Errorf("UpperCase=%q", got)
	}
	if got := ReorderComma(1).Apply("John Smith", r); got != "Smith, John" {
		t.Errorf("ReorderComma=%q", got)
	}
	if got := ReorderComma(1).Apply("Single", r); got != "Single" {
		t.Errorf("single token should pass through: %q", got)
	}
	if got := Initialism(1).Apply("New Delhi", r); got != "ND" {
		t.Errorf("Initialism=%q", got)
	}
	if got := AbbrevTerms(1).Apply("University of Springfield", r); !strings.HasPrefix(got, "Univ.") {
		t.Errorf("AbbrevTerms=%q", got)
	}
	syn := LexSynonym(1).Apply("Canada", r)
	if syn == "Canada" {
		t.Errorf("LexSynonym should rewrite Canada, got %q", syn)
	}
	if got := LexSynonym(1).Apply("Zzzz Unknown", r); got != "Zzzz Unknown" {
		t.Errorf("unknown value should pass through: %q", got)
	}
	typo := Typo(1).Apply("Barcelona", r)
	if typo == "Barcelona" {
		t.Errorf("Typo(1) should change the value")
	}
	if got := Typo(1).Apply("ab", r); got != "ab" {
		t.Errorf("too-short value should pass through: %q", got)
	}
	if got := TruncateWord(1).Apply("International Airport", r); got == "International Airport" {
		t.Error("TruncateWord should clip a long token")
	}
}

func TestTransformRateZero(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if got := Typo(0).Apply("Barcelona", r); got != "Barcelona" {
		t.Errorf("rate 0 must be identity: %q", got)
	}
}

func TestAutoJoinShape(t *testing.T) {
	sets := AutoJoin(AutoJoinConfig{Seed: 1})
	if len(sets) != 31 {
		t.Fatalf("want 31 sets, got %d", len(sets))
	}
	topicsSeen := map[string]bool{}
	for _, s := range sets {
		topicsSeen[s.Topic] = true
		if len(s.Columns) < 2 || len(s.Columns) > 4 {
			t.Errorf("%s: %d columns", s.Name, len(s.Columns))
		}
		for ci, col := range s.Columns {
			seen := map[string]bool{}
			for _, v := range col.Values {
				if seen[v] {
					t.Errorf("%s col %d: duplicate value %q (clean-clean violated)", s.Name, ci, v)
				}
				seen[v] = true
			}
		}
		if s.GoldPairs().Len() == 0 {
			t.Errorf("%s: no gold pairs", s.Name)
		}
	}
	if len(topicsSeen) != 17 {
		t.Errorf("sets cover %d topics, want all 17", len(topicsSeen))
	}
}

func TestAutoJoinDeterminism(t *testing.T) {
	a := AutoJoin(AutoJoinConfig{Seed: 5, Sets: 3, ValuesPerColumn: 40})
	b := AutoJoin(AutoJoinConfig{Seed: 5, Sets: 3, ValuesPerColumn: 40})
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Columns) != len(b[i].Columns) {
			t.Fatalf("set %d differs", i)
		}
		for c := range a[i].Columns {
			av := a[i].Columns[c].Values
			bv := b[i].Columns[c].Values
			if len(av) != len(bv) {
				t.Fatalf("set %d col %d differs in size", i, c)
			}
			for j := range av {
				if av[j] != bv[j] {
					t.Fatalf("set %d col %d value %d: %q vs %q", i, c, j, av[j], bv[j])
				}
			}
		}
	}
}

func TestAutoJoinEvaluateHappyPath(t *testing.T) {
	// A perfect prediction (gold itself) must score 1.0.
	sets := AutoJoin(AutoJoinConfig{Seed: 2, Sets: 1, ValuesPerColumn: 30})
	s := sets[0]
	var clusters []match.Cluster
	for _, g := range s.gold {
		var c match.Cluster
		for _, id := range g {
			colon := strings.IndexByte(id, ':')
			col := int(id[colon-1] - '0')
			c.Members = append(c.Members, match.Member{Col: col, Value: id[colon+1:]})
		}
		c.Rep = c.Members[0].Value
		clusters = append(clusters, c)
	}
	m := s.Evaluate(clusters)
	if m.Precision != 1 || m.Recall != 1 {
		t.Errorf("gold-vs-gold=%v", m)
	}
}

func TestEMBenchShape(t *testing.T) {
	b := EMBench(EMConfig{Seed: 3})
	if len(b.Tables) != 4 {
		t.Fatalf("tables=%d", len(b.Tables))
	}
	if len(b.Gold) == 0 {
		t.Fatal("no gold labels")
	}
	// Gold keys must reference existing tuples; every table row must have a
	// label; name columns must be clean-clean.
	for tid := range b.Gold {
		if tid.Table < 0 || tid.Table >= len(b.Tables) || tid.Row >= b.Tables[tid.Table].NumRows() {
			t.Errorf("gold TID out of range: %v", tid)
		}
	}
	for ti, tb := range b.Tables {
		if tb.ColumnIndex("name") != 0 {
			t.Errorf("table %s: join column missing", tb.Name)
		}
		seen := map[string]bool{}
		for ri, row := range tb.Rows {
			if _, ok := b.Gold[fd.TID{Table: ti, Row: ri}]; !ok {
				t.Errorf("row %d.%d unlabeled", ti, ri)
			}
			if row[0].IsNull {
				t.Errorf("null join value at %d.%d", ti, ri)
				continue
			}
			if seen[row[0].Val] {
				t.Errorf("table %s: duplicate name %q", tb.Name, row[0].Val)
			}
			seen[row[0].Val] = true
		}
	}
}

func TestEMBenchHasTwins(t *testing.T) {
	b := EMBench(EMConfig{Seed: 3, Entities: 200})
	twins := 0
	for _, ent := range b.Gold {
		if strings.HasSuffix(ent, "-twin") {
			twins++
			break
		}
	}
	if twins == 0 {
		t.Error("no confusable twins generated")
	}
}

func TestIMDBShape(t *testing.T) {
	tables := IMDB(IMDBConfig{Seed: 4, TotalTuples: 2000})
	if len(tables) != 6 {
		t.Fatalf("tables=%d", len(tables))
	}
	total := TotalRows(tables)
	if total < 1800 || total > 2200 {
		t.Errorf("total rows=%d, want ≈2000", total)
	}
	// Key integrity: every tconst outside title_basics exists in it.
	basics := tables[0]
	tcs := map[string]bool{}
	for _, row := range basics.Rows {
		tcs[row[0].Val] = true
	}
	for _, tb := range tables[1:] {
		ci := tb.ColumnIndex("tconst")
		if ci < 0 {
			continue
		}
		for _, row := range tb.Rows {
			if !tcs[row[ci].Val] {
				t.Fatalf("%s: dangling tconst %q", tb.Name, row[ci].Val)
			}
		}
	}
	// Ratings and crew reference distinct titles (at most one row each).
	for _, name := range []string{"title_ratings", "title_crew"} {
		for _, tb := range tables {
			if tb.Name != name {
				continue
			}
			seen := map[string]bool{}
			for _, row := range tb.Rows {
				if seen[row[0].Val] {
					t.Errorf("%s: duplicate tconst %q", name, row[0].Val)
				}
				seen[row[0].Val] = true
			}
		}
	}
}

func TestIMDBDeterminism(t *testing.T) {
	a := IMDB(IMDBConfig{Seed: 9, TotalTuples: 500})
	b := IMDB(IMDBConfig{Seed: 9, TotalTuples: 500})
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("table %d differs between runs", i)
		}
	}
}

func TestSkewedShape(t *testing.T) {
	tables := Skewed(SkewConfig{Seed: 6, Items: 300, Categories: 10})
	if len(tables) != 3 {
		t.Fatalf("tables=%d", len(tables))
	}
	items, details, cats := tables[0], tables[1], tables[2]
	if len(items.Rows) != 300 || len(details.Rows) != 300 || len(cats.Rows) != 10 {
		t.Fatalf("row counts items=%d details=%d categories=%d",
			len(items.Rows), len(details.Rows), len(cats.Rows))
	}
	// The first category must dominate: the hub component only forms when
	// one category value chains most items together.
	ci := items.ColumnIndex("category")
	dominant := 0
	for _, row := range items.Rows {
		if row[ci].Val == cats.Rows[0][0].Val {
			dominant++
		}
	}
	if dominant < len(items.Rows)/2 {
		t.Errorf("dominant category covers only %d/%d items", dominant, len(items.Rows))
	}
	if dominant == len(items.Rows) {
		t.Error("no minority categories generated")
	}
	// itemIDs must be unique and fully covered by details — itemID is the
	// column pivot selection is supposed to pick inside the hub.
	seen := map[string]bool{}
	for _, row := range items.Rows {
		if seen[row[0].Val] {
			t.Errorf("duplicate itemID %q", row[0].Val)
		}
		seen[row[0].Val] = true
	}
	for _, row := range details.Rows {
		if !seen[row[0].Val] {
			t.Fatalf("dangling itemID %q in item_details", row[0].Val)
		}
	}
}

func TestSkewedDeterminism(t *testing.T) {
	a := Skewed(SkewConfig{Seed: 11, Items: 80})
	b := Skewed(SkewConfig{Seed: 11, Items: 80})
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("table %d differs between runs", i)
		}
	}
}

func TestIMDBDefaultSize(t *testing.T) {
	tables := IMDB(IMDBConfig{Seed: 1})
	if TotalRows(tables) < 4000 {
		t.Errorf("default size too small: %d", TotalRows(tables))
	}
}
