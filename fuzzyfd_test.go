package fuzzyfd

import (
	"path/filepath"
	"testing"
)

func covidTables() []*Table {
	t1 := NewTable("T1", "City", "Country")
	t1.MustAppendRow(String("Berlinn"), String("Germany"))
	t1.MustAppendRow(String("Toronto"), String("Canada"))
	t1.MustAppendRow(String("Barcelona"), String("Spain"))
	t1.MustAppendRow(String("New Delhi"), String("India"))

	t2 := NewTable("T2", "Country", "City", "VacRate")
	t2.MustAppendRow(String("CA"), String("Toronto"), String("83%"))
	t2.MustAppendRow(String("US"), String("Boston"), String("62%"))
	t2.MustAppendRow(String("DE"), String("Berlin"), String("63%"))
	t2.MustAppendRow(String("ES"), String("Barcelona"), String("82%"))

	t3 := NewTable("T3", "City", "TotalCases", "DeathRate")
	t3.MustAppendRow(String("Berlin"), String("1.4M"), String("147"))
	t3.MustAppendRow(String("barcelona"), String("2.68M"), String("275"))
	t3.MustAppendRow(String("Boston"), String("263K"), String("335"))
	return []*Table{t1, t2, t3}
}

func TestIntegrateDefaults(t *testing.T) {
	res, err := Integrate(covidTables())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 5 {
		t.Errorf("rows=%d want 5\n%v", res.Table.NumRows(), res.Table)
	}
}

func TestIntegrateEquiJoinBaseline(t *testing.T) {
	res, err := Integrate(covidTables(), WithEquiJoin())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 9 {
		t.Errorf("rows=%d want 9", res.Table.NumRows())
	}
}

// TestMemoryBytesReported: with a memory budget set, FDStats.MemoryBytes
// carries the budget model's estimate — one-shot, and on a session's second
// Integrate, which closes nothing.
func TestMemoryBytesReported(t *testing.T) {
	const budget = 1 << 30
	res, err := Integrate(covidTables(), WithEquiJoin(), WithMemoryBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	if m := res.FDStats.MemoryBytes; m <= 0 || m > budget {
		t.Errorf("one-shot MemoryBytes = %d, want in (0, %d]", m, budget)
	}
	s, err := NewSession(WithEquiJoin(), WithMemoryBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	s.Add(covidTables()...)
	if _, err := s.Integrate(); err != nil {
		t.Fatal(err)
	}
	again, err := s.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	if again.FDStats.DirtyComponents != 0 {
		t.Fatalf("second Integrate re-closed %d components, want 0", again.FDStats.DirtyComponents)
	}
	if again.FDStats.MemoryBytes != res.FDStats.MemoryBytes {
		t.Errorf("second Integrate MemoryBytes = %d, one-shot %d", again.FDStats.MemoryBytes, res.FDStats.MemoryBytes)
	}
	if plain, err := Integrate(covidTables(), WithEquiJoin()); err != nil || plain.FDStats.MemoryBytes != 0 {
		t.Errorf("without a budget MemoryBytes = %d (err %v), want 0", plain.FDStats.MemoryBytes, err)
	}
}

func TestOptionCombinations(t *testing.T) {
	res, err := Integrate(covidTables(),
		WithModel(ModelMistral),
		WithThreshold(0.7),
		WithContentAlignment(true),
		WithParallelFD(4),
		WithTupleBudget(100000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 5 {
		t.Errorf("rows=%d want 5", res.Table.NumRows())
	}
}

func TestWeakModelMissesSynonyms(t *testing.T) {
	res, err := Integrate(covidTables(), WithModel(ModelFastText))
	if err != nil {
		t.Fatal(err)
	}
	// FastText bridges typos/case but not country codes, so the result sits
	// between the 5 (full fuzzy) and 9 (equi) rows.
	if res.Table.NumRows() <= 5 || res.Table.NumRows() >= 9 {
		t.Errorf("fasttext rows=%d want in (5, 9)", res.Table.NumRows())
	}
}

func TestOptionErrors(t *testing.T) {
	if _, err := Integrate(covidTables(), WithModel("gpt-99")); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := Integrate(covidTables(), WithThreshold(1.5)); err == nil {
		t.Error("bad threshold accepted")
	}
	if _, err := Integrate(covidTables(), WithThreshold(0)); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := Integrate(covidTables(), WithParallelFD(0)); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := Integrate(nil); err == nil {
		t.Error("empty integration set accepted")
	}
}

func TestMatchValues(t *testing.T) {
	clusters, err := MatchValues([][]string{
		{"Berlinn", "Toronto", "Barcelona", "New Delhi"},
		{"Toronto", "Boston", "Berlin", "Barcelona"},
		{"Berlin", "barcelona", "Boston"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 5 {
		t.Fatalf("clusters=%d want 5", len(clusters))
	}
	reps := map[string]bool{}
	for _, c := range clusters {
		reps[c.Rep] = true
	}
	for _, want := range []string{"Berlin", "Toronto", "Barcelona", "New Delhi", "Boston"} {
		if !reps[want] {
			t.Errorf("missing representative %q (have %v)", want, reps)
		}
	}
}

func TestMatchValuesGreedy(t *testing.T) {
	clusters, err := MatchValues([][]string{
		{"Berlin"}, {"Berlinn"},
	}, WithGreedyAssignment())
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 {
		t.Errorf("clusters=%v", clusters)
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	orig := NewTable("t", "a", "b")
	orig.MustAppendRow(String("1"), Null())
	if err := WriteCSVFile(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 1 || !back.Rows[0][1].IsNull {
		t.Errorf("round trip: %v", back)
	}
}

func TestWithLexiconWeight(t *testing.T) {
	// Weight 0 disables entity knowledge: country codes no longer match,
	// so the COVID example integrates less than full fuzzy (5 rows) but
	// still more than equi-join (9 rows).
	res, err := Integrate(covidTables(), WithLexiconWeight(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() <= 5 || res.Table.NumRows() >= 9 {
		t.Errorf("rows=%d want in (5, 9)", res.Table.NumRows())
	}
	// A strong weight behaves like (or better than) the default.
	res, err = Integrate(covidTables(), WithLexiconWeight(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 5 {
		t.Errorf("rows=%d want 5", res.Table.NumRows())
	}
	if _, err := Integrate(covidTables(), WithLexiconWeight(-1)); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestDiscoverThenIntegrate(t *testing.T) {
	tables := covidTables()
	query := tables[0]
	corpus := tables // includes the query itself; must be excluded

	joinable, err := DiscoverJoinable(query, corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(joinable) == 0 {
		t.Fatal("no joinable tables found")
	}
	for _, c := range joinable {
		if c.Table == query {
			t.Fatal("query returned as candidate")
		}
	}
	integration := append([]*Table{query}, joinable[0].Table)
	res, err := Integrate(integration)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 {
		t.Error("integration of discovered tables empty")
	}

	unionable, err := DiscoverUnionable(query, corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range unionable {
		if c.Score <= 0 || c.Score > 1 {
			t.Errorf("unionable score=%v", c.Score)
		}
	}
	if _, err := DiscoverJoinable(query, corpus, 1, WithModel("nope")); err == nil {
		t.Error("bad option accepted")
	}
}

func TestModels(t *testing.T) {
	ms := Models()
	if len(ms) != 5 || ms[0] != ModelFastText || ms[4] != ModelMistral {
		t.Errorf("Models()=%v", ms)
	}
}

func TestWithMatchWorkers(t *testing.T) {
	res, err := Integrate(covidTables(), WithMatchWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 5 {
		t.Errorf("rows=%d want 5", res.Table.NumRows())
	}
	if _, err := Integrate(covidTables(), WithMatchWorkers(0)); err == nil {
		t.Error("zero match workers accepted")
	}
}
