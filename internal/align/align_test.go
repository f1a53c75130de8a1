package align

import (
	"testing"

	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/table"
)

func covidTables(headers bool) []*table.Table {
	name := func(base string, alt string) string {
		if headers {
			return base
		}
		return alt
	}
	t1 := table.New("T1", name("City", "h1"), name("Country", "h2"))
	t1.MustAppendRow(table.S("Berlinn"), table.S("Germany"))
	t1.MustAppendRow(table.S("Toronto"), table.S("Canada"))
	t1.MustAppendRow(table.S("Barcelona"), table.S("Spain"))
	t1.MustAppendRow(table.S("New Delhi"), table.S("India"))

	t2 := table.New("T2", name("Country", "x1"), name("City", "x2"), name("VacRate", "x3"))
	t2.MustAppendRow(table.S("Canada"), table.S("Toronto"), table.S("83"))
	t2.MustAppendRow(table.S("United States"), table.S("Boston"), table.S("62"))
	t2.MustAppendRow(table.S("Germany"), table.S("Berlin"), table.S("63"))
	t2.MustAppendRow(table.S("Spain"), table.S("Barcelona"), table.S("82"))

	t3 := table.New("T3", name("City", "y1"), name("DeathRate", "y2"))
	t3.MustAppendRow(table.S("Berlin"), table.S("147"))
	t3.MustAppendRow(table.S("barcelona"), table.S("275"))
	t3.MustAppendRow(table.S("Boston"), table.S("335"))
	return []*table.Table{t1, t2, t3}
}

func clustersBySet(r Result) map[ColumnRef]int {
	out := make(map[ColumnRef]int)
	for k, cluster := range r.Clusters {
		for _, ref := range cluster {
			out[ref] = k
		}
	}
	return out
}

// Content-based alignment must recover the City and Country clusters even
// with garbage headers.
func TestAlignContentOnly(t *testing.T) {
	tables := covidTables(false)
	a := &Aligner{Emb: embed.NewMistral()}
	res, err := a.Align(tables)
	if err != nil {
		t.Fatal(err)
	}
	at := clustersBySet(res)
	city1 := at[ColumnRef{0, 0}]
	city2 := at[ColumnRef{1, 1}]
	city3 := at[ColumnRef{2, 0}]
	if city1 != city2 || city2 != city3 {
		t.Errorf("city columns should align: %d %d %d (clusters %v)", city1, city2, city3, res.Clusters)
	}
	country1 := at[ColumnRef{0, 1}]
	country2 := at[ColumnRef{1, 0}]
	if country1 != country2 {
		t.Errorf("country columns should align: %d %d", country1, country2)
	}
	if city1 == country1 {
		t.Error("city and country must not collapse into one cluster")
	}
}

func TestAlignUsesHeaders(t *testing.T) {
	tables := covidTables(true)
	a := &Aligner{Emb: embed.NewMistral(), UseHeaders: true}
	res, err := a.Align(tables)
	if err != nil {
		t.Fatal(err)
	}
	// With reliable headers the elected names should reflect them.
	found := map[string]bool{}
	for _, n := range res.Names {
		found[n] = true
	}
	if !found["city"] || !found["country"] {
		t.Errorf("names=%v", res.Names)
	}
}

// Columns of the same table must never align, even if identical.
func TestSameTableConstraint(t *testing.T) {
	t1 := table.New("T1", "a", "b")
	t1.MustAppendRow(table.S("x"), table.S("x"))
	t1.MustAppendRow(table.S("y"), table.S("y"))
	t2 := table.New("T2", "c")
	t2.MustAppendRow(table.S("x"))
	tables := []*table.Table{t1, t2}
	res, err := (&Aligner{Emb: embed.NewMistral()}).Align(tables)
	if err != nil {
		t.Fatal(err)
	}
	at := clustersBySet(res)
	if at[ColumnRef{0, 0}] == at[ColumnRef{0, 1}] {
		t.Error("same-table columns aligned")
	}
}

// Numeric columns must not align with text columns even when embeddings
// are noisy.
func TestKindGate(t *testing.T) {
	if table.KindsCompatible(table.KindInt, table.KindString) {
		t.Error("int/string should be incompatible")
	}
	if !table.KindsCompatible(table.KindInt, table.KindFloat) {
		t.Error("int/float should be compatible")
	}
	if !table.KindsCompatible(table.KindEmpty, table.KindString) {
		t.Error("empty should be compatible with anything")
	}
}

func TestAlignErrors(t *testing.T) {
	if _, err := (&Aligner{}).Align(nil); err == nil {
		t.Error("nil embedder accepted")
	}
}

func TestSchemaConversion(t *testing.T) {
	tables := covidTables(true)
	a := &Aligner{Emb: embed.NewMistral(), UseHeaders: true}
	res, err := a.Align(tables)
	if err != nil {
		t.Fatal(err)
	}
	schema := res.Schema(tables)
	if err := schema.Validate(tables); err != nil {
		t.Fatalf("converted schema invalid: %v", err)
	}
	if len(schema.Columns) != len(res.Clusters) {
		t.Errorf("schema has %d columns for %d clusters", len(schema.Columns), len(res.Clusters))
	}
}

func TestElectNameDedup(t *testing.T) {
	used := map[string]int{}
	n1 := electName(map[string]int{"city": 2, "town": 1}, used, 0)
	if n1 != "city" {
		t.Errorf("n1=%q", n1)
	}
	n2 := electName(map[string]int{"city": 1}, used, 1)
	if n2 != "city_2" {
		t.Errorf("n2=%q", n2)
	}
	n3 := electName(nil, used, 7)
	if n3 != "col7" {
		t.Errorf("n3=%q", n3)
	}
}

func TestSampleSizeCap(t *testing.T) {
	big := table.New("big", "v")
	for i := 0; i < 500; i++ {
		big.MustAppendRow(table.S("value-" + string(rune('a'+i%26)) + string(rune('0'+i%10))))
	}
	a := &Aligner{Emb: embed.NewMistral()}
	vec := a.columnVector(big, 0)
	if len(vec) != a.Emb.Dim() {
		t.Errorf("vector dim=%d", len(vec))
	}
}
