package fuzzyfd

// One benchmark per table and figure of the paper's evaluation (§3), plus
// the ablations listed in DESIGN.md §5. The experiment harness
// (cmd/experiments) prints the corresponding result tables; these
// benchmarks measure the cost of regenerating each artifact and the
// relative cost of design alternatives.
//
//	go test -bench=. -benchmem
//
// Figure 3's largest sweep points run for tens of seconds by design (the
// paper's Python baseline needed ~4000s at 30K tuples); run the full-size
// sweep with cmd/experiments -exp figure3.

import (
	"fmt"
	"testing"

	"fuzzyfd/internal/core"
	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/em"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/match"
)

// BenchmarkTable1 measures the value-matching pass behind each row of
// Table 1: one embedding model over the 31-set Auto-Join benchmark.
func BenchmarkTable1(b *testing.B) {
	sets := datagen.AutoJoin(datagen.AutoJoinConfig{Seed: 42})
	for _, name := range embed.ModelNames() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model, err := embed.New(name) // cold cache each iteration
				if err != nil {
					b.Fatal(err)
				}
				matcher := &match.Matcher{Emb: model}
				for _, s := range sets {
					if _, err := matcher.Match(s.Columns); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDownstreamEM measures the §3.2 experiment: integration plus
// entity matching, for both pipelines.
func BenchmarkDownstreamEM(b *testing.B) {
	bench := datagen.EMBench(datagen.EMConfig{Seed: 42, Entities: 150})
	for _, method := range []core.Method{core.MethodEquiFD, core.MethodFuzzyFD} {
		b.Run(methodLabel(method), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Integrate(bench.Tables, core.Config{Method: method})
				if err != nil {
					b.Fatal(err)
				}
				em.Evaluate(res.FDResult(), bench.Gold, em.Options{})
			}
		})
	}
}

// BenchmarkFigure3 measures both pipelines on the IMDB benchmark at
// growing input sizes — the two curves of Figure 3.
func BenchmarkFigure3(b *testing.B) {
	for _, size := range []int{5000, 10000, 15000} {
		tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: size})
		for _, method := range []core.Method{core.MethodEquiFD, core.MethodFuzzyFD} {
			b.Run(fmt.Sprintf("%s/S=%d", methodLabel(method), size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Integrate(tables, core.Config{Method: method}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationAssignment compares the exact assignment solver against
// the greedy heuristic inside value matching (ablation A1).
func BenchmarkAblationAssignment(b *testing.B) {
	sets := datagen.AutoJoin(datagen.AutoJoinConfig{Seed: 42, Sets: 8})
	modes := map[string]match.Mode{"hungarian": match.ModeDense, "greedy": match.ModeGreedy}
	for _, label := range []string{"hungarian", "greedy"} {
		mode := modes[label]
		b.Run(label, func(b *testing.B) {
			matcher := &match.Matcher{Emb: embed.NewMistral(), Opts: match.Options{Mode: mode}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range sets {
					if _, err := matcher.Match(s.Columns); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationParallelFD compares sequential and parallel Full
// Disjunction (ablation A2): parallel workers close whole connected
// components concurrently and a hub component by pivot-value groups.
func BenchmarkAblationParallelFD(b *testing.B) {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: 8000})
	schema := fd.IdentitySchema(tables)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fd.FullDisjunction(tables, schema, fd.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBlocking compares the dense assignment path against the
// blocked sparse path on a large column pair (ablation A3). The sparse
// path's advantage grows with column size; at this size it is already
// visible.
func BenchmarkAblationBlocking(b *testing.B) {
	sets := datagen.AutoJoin(datagen.AutoJoinConfig{Seed: 42, Sets: 2, ValuesPerColumn: 600})
	modes := map[string]match.Mode{"dense": match.ModeDense, "sparse": match.ModeSparse}
	for _, label := range []string{"dense", "sparse"} {
		mode := modes[label]
		b.Run(label, func(b *testing.B) {
			matcher := &match.Matcher{Emb: embed.NewMistral(), Opts: match.Options{Mode: mode}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range sets {
					if _, err := matcher.Match(s.Columns); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkIntegrateQuickstart measures the end-to-end public API on the
// paper's Figure 1 example — the latency floor of the pipeline.
func BenchmarkIntegrateQuickstart(b *testing.B) {
	tables := covidTables()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Integrate(tables); err != nil {
			b.Fatal(err)
		}
	}
}

func methodLabel(m core.Method) string {
	if m == core.MethodEquiFD {
		return "ALITE"
	}
	return "FuzzyFD"
}
