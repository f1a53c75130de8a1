package core

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/em"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/match"
	"fuzzyfd/internal/table"
)

// fig1 builds the paper's Figure 1 tables with all inconsistencies intact.
func fig1() []*table.Table {
	t1 := table.New("T1", "City", "Country")
	t1.MustAppendRow(table.S("Berlinn"), table.S("Germany"))
	t1.MustAppendRow(table.S("Toronto"), table.S("Canada"))
	t1.MustAppendRow(table.S("Barcelona"), table.S("Spain"))
	t1.MustAppendRow(table.S("New Delhi"), table.S("India"))

	t2 := table.New("T2", "Country", "City", "VacRate")
	t2.MustAppendRow(table.S("CA"), table.S("Toronto"), table.S("83%"))
	t2.MustAppendRow(table.S("US"), table.S("Boston"), table.S("62%"))
	t2.MustAppendRow(table.S("DE"), table.S("Berlin"), table.S("63%"))
	t2.MustAppendRow(table.S("ES"), table.S("Barcelona"), table.S("82%"))

	t3 := table.New("T3", "City", "TotalCases", "DeathRate")
	t3.MustAppendRow(table.S("Berlin"), table.S("1.4M"), table.S("147"))
	t3.MustAppendRow(table.S("barcelona"), table.S("2.68M"), table.S("275"))
	t3.MustAppendRow(table.S("Boston"), table.S("263K"), table.S("335"))
	return []*table.Table{t1, t2, t3}
}

// The paper's headline example: regular FD leaves 9 partially-integrated
// tuples; Fuzzy FD produces the 5 fully-integrated ones.
func TestFig1EndToEnd(t *testing.T) {
	tables := fig1()

	regular, err := Integrate(tables, Config{Method: MethodEquiFD})
	if err != nil {
		t.Fatal(err)
	}
	if regular.Table.NumRows() != 9 {
		t.Errorf("regular FD rows=%d want 9\n%v", regular.Table.NumRows(), regular.Table)
	}

	fuzzy, err := Integrate(tables, Config{Method: MethodFuzzyFD})
	if err != nil {
		t.Fatal(err)
	}
	if fuzzy.Table.NumRows() != 5 {
		t.Fatalf("fuzzy FD rows=%d want 5\n%v", fuzzy.Table.NumRows(), fuzzy.Table)
	}

	// The Berlin row must integrate t1, t7 (DE row), and t9.
	cityCol := fuzzy.Table.ColumnIndex("City")
	found := false
	for i, row := range fuzzy.Table.Rows {
		if row[cityCol].Val == "Berlin" {
			found = true
			if len(fuzzy.Prov[i]) != 3 {
				t.Errorf("Berlin prov=%v want 3 sources", fuzzy.Prov[i])
			}
			vac := fuzzy.Table.ColumnIndex("VacRate")
			if row[vac].IsNull || row[vac].Val != "63%" {
				t.Errorf("Berlin VacRate=%v", row[vac])
			}
		}
		if row[cityCol].Val == "Berlinn" {
			t.Error("typo form survived fuzzy integration")
		}
	}
	if !found {
		t.Errorf("no Berlin row:\n%v", fuzzy.Table)
	}

	// Inputs must not be mutated.
	if tables[0].Rows[0][0].Val != "Berlinn" {
		t.Error("input table mutated")
	}

	// Diagnostics populated.
	if fuzzy.MatchStats.Merged == 0 || fuzzy.MatchStats.Rewrites == 0 {
		t.Errorf("match stats: %+v", fuzzy.MatchStats)
	}
	if fuzzy.Timings.Total <= 0 || fuzzy.Timings.FD <= 0 || fuzzy.Timings.Match <= 0 {
		t.Errorf("timings: %+v", fuzzy.Timings)
	}
	if len(fuzzy.ColumnClusters) == 0 {
		t.Error("no column clusters recorded")
	}
}

// Content-based alignment must reproduce the same integration when headers
// are scrambled.
func TestFig1WithScrambledHeaders(t *testing.T) {
	tables := fig1()
	tables[0].Columns = []string{"h1", "h2"}
	tables[1].Columns = []string{"x1", "x2", "x3"}
	tables[2].Columns = []string{"y1", "y2", "y3"}

	fuzzy, err := Integrate(tables, Config{Method: MethodFuzzyFD, AlignContent: true})
	if err != nil {
		t.Fatal(err)
	}
	if fuzzy.Table.NumRows() != 5 {
		t.Errorf("fuzzy FD with content alignment rows=%d want 5\n%v", fuzzy.Table.NumRows(), fuzzy.Table)
	}
}

func TestIntegrateErrors(t *testing.T) {
	if _, err := Integrate(nil, Config{}); err == nil {
		t.Error("empty integration set accepted")
	}
	// The memory budget flows through to the FD: a tiny one must abort.
	tables := fig1()
	if _, err := Integrate(tables, Config{Method: MethodEquiFD, MemoryBudget: 1}); !errors.Is(err, fd.ErrMemoryBudget) {
		t.Errorf("memory budget not propagated: %v", err)
	}
}

func TestIntegrateParallelFD(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, err := Integrate(fig1(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	par, err := Integrate(fig1(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Table.Equal(par.Table) {
		t.Error("parallel FD changed the integrated table")
	}
}

// TestFDWorkersFollowGOMAXPROCS: the closure's workers count the process's
// CPUs. The IMDB tables at 2 000 tuples hold a 1 062-tuple
// hub, which GOMAXPROCS 2 closes by pivot-value groups and GOMAXPROCS 1
// closes sequentially with pivot bucketing — into the same table,
// provenance and merge attempts.
func TestFDWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) *Result {
		t.Helper()
		runtime.GOMAXPROCS(procs)
		tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: 2000})
		res, err := Integrate(tables, Config{Method: MethodEquiFD})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	par, seq := run(2), run(1)
	if par.FDStats.PivotGroups == 0 {
		t.Error("GOMAXPROCS 2: the hub was not closed by pivot groups")
	}
	if seq.FDStats.PivotGroups != 0 || seq.FDStats.PivotSkipped == 0 {
		t.Errorf("GOMAXPROCS 1: %d pivot groups, %d skipped probes; want 0 groups and a bucketed closure",
			seq.FDStats.PivotGroups, seq.FDStats.PivotSkipped)
	}
	if !par.Table.Equal(seq.Table) || !reflect.DeepEqual(par.Prov, seq.Prov) {
		t.Error("GOMAXPROCS 2 and 1 integrated different tables or provenance")
	}
	if par.FDStats.MergeAttempts != seq.FDStats.MergeAttempts {
		t.Errorf("%d merge attempts at GOMAXPROCS 2, %d at 1", par.FDStats.MergeAttempts, seq.FDStats.MergeAttempts)
	}
}

func TestTableWithProvenance(t *testing.T) {
	res, err := Integrate(fig1(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	withProv := res.TableWithProvenance()
	if withProv.Columns[0] != "TIDs" || withProv.NumCols() != res.Table.NumCols()+1 {
		t.Errorf("columns=%v", withProv.Columns)
	}
	if withProv.NumRows() != res.Table.NumRows() {
		t.Errorf("rows=%d", withProv.NumRows())
	}
	for _, row := range withProv.Rows {
		if row[0].IsNull || row[0].Val == "{}" {
			t.Errorf("provenance cell=%v", row[0])
		}
	}
}

// The paper's §3.2 claim, in miniature and deterministic: entity matching
// over Fuzzy FD output beats entity matching over regular FD output.
func TestDownstreamEMImproves(t *testing.T) {
	bench := datagen.EMBench(datagen.EMConfig{Seed: 11, Entities: 60})

	regular, err := Integrate(bench.Tables, Config{Method: MethodEquiFD})
	if err != nil {
		t.Fatal(err)
	}
	fuzzy, err := Integrate(bench.Tables, Config{Method: MethodFuzzyFD})
	if err != nil {
		t.Fatal(err)
	}

	regularFD := &regular.FDStats
	fuzzyFD := &fuzzy.FDStats
	if fuzzyFD.Output > regularFD.Output {
		t.Errorf("fuzzy FD should integrate at least as much: %d vs %d rows", fuzzyFD.Output, regularFD.Output)
	}

	mr := em.Evaluate(regular.FDResult(), bench.Gold, em.Options{})
	mf := em.Evaluate(fuzzy.FDResult(), bench.Gold, em.Options{})
	t.Logf("regular FD: %v", mr)
	t.Logf("fuzzy FD:   %v", mf)
	if mf.F1 <= mr.F1 {
		t.Errorf("fuzzy FD should improve downstream EM F1: %.3f vs %.3f", mf.F1, mr.F1)
	}
}

// combineStats must weight MeanDistance by the number of contributing
// members, not average the per-set means.
func TestCombineStatsMemberWeighted(t *testing.T) {
	combined := combineStats([]match.Stats{
		{Clusters: 1, Members: 3, MeanDistance: 0.1, DistanceCount: 9,
			CandidatePairs: 40, Edges: 7, AssignComponents: 2, LargestAssignComponent: [2]int{3, 4}, Rounds: 2, RoundsReplayed: 1},
		{Clusters: 2, Members: 2, MeanDistance: 0.7, DistanceCount: 1,
			CandidatePairs: 2, Edges: 1, AssignComponents: 1, LargestAssignComponent: [2]int{1, 13}, Rounds: 3, RoundsReplayed: 3},
	})
	want := (0.1*9 + 0.7*1) / 10
	if diff := combined.MeanDistance - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("MeanDistance=%v want %v (member-weighted)", combined.MeanDistance, want)
	}
	if combined.DistanceCount != 10 {
		t.Errorf("DistanceCount=%d want 10", combined.DistanceCount)
	}
	if combined.Clusters != 3 || combined.Members != 5 ||
		combined.CandidatePairs != 42 || combined.Edges != 8 || combined.AssignComponents != 3 ||
		combined.Rounds != 5 || combined.RoundsReplayed != 4 {
		t.Errorf("counts not summed: %+v", combined)
	}
	if combined.LargestAssignComponent != [2]int{1, 13} {
		t.Errorf("largest component %v, want the one with most cells", combined.LargestAssignComponent)
	}
	// Sets that matched nothing contribute nothing.
	empty := combineStats([]match.Stats{{Clusters: 4}, {Clusters: 1}})
	if empty.MeanDistance != 0 || empty.DistanceCount != 0 {
		t.Errorf("empty distance stats: %+v", empty)
	}
}

// Match-phase warming has its own worker knob: explicit match workers
// integrate as the default (0 = GOMAXPROCS) does.
func TestMatchWorkersIndependentOfFD(t *testing.T) {
	base, err := Integrate(fig1(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{MatchWorkers: 1},
		{MatchWorkers: 8},
	} {
		res, err := Integrate(fig1(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Table.Equal(base.Table) {
			t.Errorf("cfg %+v changed the integrated table", cfg)
		}
	}
}
