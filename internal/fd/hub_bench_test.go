package fd_test

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
)

// The hub benchmark isolates the closure cost center of data-lake inputs:
// the single dominant connected component. IMDB-shaped inputs put ~70% of
// closure work into one hub component, so component-granularity scheduling
// leaves workers idle exactly when it matters; this fixture extracts that
// hub as a standalone single-component integration set and races the three
// closure engines inside it (sequential worklist, round-based parallel,
// pivot-partitioned parallel — what Workers > 1 runs for a full closure
// with a pivot, which this fixture has).

// hubTables extracts the largest connected component of an IMDB-shaped
// workload with total input tuples, materialized as a one-table
// integration set whose Full Disjunction is exactly the hub's closure.
func hubTables(total int) []*table.Table {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: total})
	return []*table.Table{fd.ExtractLargestComponent(tables, fd.IdentitySchema(tables))}
}

// hubEngines are the engine variants the hub benchmark and BENCH_fd.json
// sweep: the sequential baseline, its unbucketed ablation (the pivot
// attempt-reduction gate compares the two), the round-based ablation, and
// the pivot-partitioned engine across worker counts.
var hubEngines = []struct {
	name string
	opts fd.Options
}{
	{"seq", fd.Options{}},
	{"seq-nopivot", fd.Options{NoPivot: true}},
	{"round-par8", fd.Options{Workers: 8, RoundParallel: true}},
	{"pivot-par2", fd.Options{Workers: 2}},
	{"pivot-par4", fd.Options{Workers: 4}},
	{"pivot-par8", fd.Options{Workers: 8}},
}

func BenchmarkClosureHub(b *testing.B) {
	tables := hubTables(8000)
	schema := fd.IdentitySchema(tables)
	for _, eng := range hubEngines {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := fd.FullDisjunction(tables, schema, eng.opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Components != 1 {
					b.Fatalf("hub fixture split into %d components", res.Stats.Components)
				}
			}
		})
	}
	// A missing trajectory file would make CI's regression gate compare the
	// checked-in baseline against itself, so failing to write is an error,
	// not a log line. HUB_BENCH_OUT redirects the report (CI's GOMAXPROCS
	// sweep keeps the checked-in baseline at its canonical proc count).
	path := os.Getenv("HUB_BENCH_OUT")
	if path == "" {
		path = "../../BENCH_fd.json"
	}
	if err := writeHubBenchJSON(path, tables, schema); err != nil {
		b.Errorf("%s not written: %v", path, err)
	}
}

// hubBenchReps is how many instrumented passes each engine gets; MS keeps
// the best one, so a GC pause or scheduler hiccup in one pass cannot fake
// a regression (or an inversion in the worker-count scaling curve).
const hubBenchReps = 3

// hubBenchEngine is one engine's instrumented measurement. MergeAttempts
// and PivotSkipped version the attempt-reduction claim alongside the
// timing baseline: skipped candidates are exactly the iterations the
// unbucketed engine would have spent failing the consistency check.
// Allocs/AllocBytes are the heap traffic of a single pass — the shared-
// state overhead the pivot-partitioned engine exists to avoid shows up
// here before it shows up in wall clock.
type hubBenchEngine struct {
	Name          string  `json:"name"`
	Workers       int     `json:"workers"`
	MS            float64 `json:"ms"`
	Allocs        uint64  `json:"allocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	MergeAttempts int     `json:"merge_attempts"`
	PivotSkipped  int     `json:"pivot_skipped"`
}

// hubBenchReport is the BENCH_fd.json schema. The CI regression gates
// compare Pivot8VsRound and PivotAttemptReduction against the checked-in
// baseline — ratios, so the gates transfer across machines of different
// absolute speed.
type hubBenchReport struct {
	Benchmark   string           `json:"benchmark"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	TotalTuples int              `json:"total_tuples"`
	HubMembers  int              `json:"hub_members"`
	HubClosure  int              `json:"hub_closure"`
	PivotColumn string           `json:"pivot_column"`
	Engines     []hubBenchEngine `json:"engines"`
	Pivot8VsSeq float64          `json:"pivot8_vs_seq_speedup"`
	// Pivot8VsRound is the pivot-partitioned engine's speedup over the
	// round-based ablation at 8 workers; PivotAttemptReduction is the
	// factor by which the pivot index cuts the sequential engine's merge
	// attempts on the hub.
	Pivot8VsRound         float64 `json:"pivot8_vs_round8_speedup"`
	PivotAttemptReduction float64 `json:"pivot_attempt_reduction"`
}

// writeHubBenchJSON runs hubBenchReps instrumented passes per engine over
// the hub fixture and records best-of wall clock, per-pass heap traffic,
// merge-attempt counters, and the derived ratios.
func writeHubBenchJSON(path string, tables []*table.Table, schema fd.Schema) error {
	report := hubBenchReport{
		Benchmark:   "closure_hub",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		TotalTuples: 8000,
		HubMembers:  len(tables[0].Rows),
	}
	times := make(map[string]float64, len(hubEngines))
	attempts := make(map[string]int, len(hubEngines))
	for _, eng := range hubEngines {
		var best float64
		var allocs, allocBytes uint64
		for rep := 0; rep < hubBenchReps; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			res, err := fd.FullDisjunction(tables, schema, eng.opts)
			if err != nil {
				return err
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			runtime.ReadMemStats(&after)
			if rep == 0 {
				// Mallocs/TotalAlloc are monotone process counters; the
				// first pass's delta is the engine's heap traffic (the
				// driver runs nothing else concurrently).
				allocs = after.Mallocs - before.Mallocs
				allocBytes = after.TotalAlloc - before.TotalAlloc
				attempts[eng.name] = res.Stats.MergeAttempts
				report.HubClosure = res.Stats.Closure
				if p := res.Stats.PivotColumn; p >= 0 {
					report.PivotColumn = schema.Columns[p]
				}
				report.Engines = append(report.Engines, hubBenchEngine{
					Name:          eng.name,
					MergeAttempts: res.Stats.MergeAttempts,
					PivotSkipped:  res.Stats.PivotSkipped,
				})
			}
			if rep == 0 || ms < best {
				best = ms
			}
		}
		times[eng.name] = best
		e := &report.Engines[len(report.Engines)-1]
		e.MS = best
		e.Allocs = allocs
		e.AllocBytes = allocBytes
		e.Workers = eng.opts.Workers
		if e.Workers < 1 {
			e.Workers = 1
		}
	}
	if t := times["pivot-par8"]; t > 0 {
		report.Pivot8VsSeq = times["seq"] / t
		report.Pivot8VsRound = times["round-par8"] / t
	}
	if a := attempts["seq"]; a > 0 {
		report.PivotAttemptReduction = float64(attempts["seq-nopivot"]) / float64(a)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// TestHubFixtureSingleComponent pins the benchmark's premise: the
// extracted hub really is one connected component, large enough that
// intra-component parallelism (not component scheduling) is what's being
// measured, and every engine closes it byte-identically.
func TestHubFixtureSingleComponent(t *testing.T) {
	tables := hubTables(3000)
	schema := fd.IdentitySchema(tables)
	res, err := fd.FullDisjunction(tables, schema, fd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Components != 1 {
		t.Fatalf("hub fixture has %d components, want 1", res.Stats.Components)
	}
	if res.Stats.OuterUnion < fd.HubMinTuples {
		t.Fatalf("hub fixture too small to engage intra-component parallelism: %d tuples", res.Stats.OuterUnion)
	}
	if res.Stats.PivotColumn < 0 {
		t.Error("pivot index did not engage on the hub fixture")
	}
	flat, err := fd.FullDisjunction(tables, schema, fd.Options{NoPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Table.Equal(res.Table) || !reflect.DeepEqual(flat.Prov, res.Prov) {
		t.Error("unbucketed closure differs from pivoted closure on the hub")
	}
	if flat.Stats.MergeAttempts < 5*res.Stats.MergeAttempts {
		t.Errorf("pivot attempt reduction below the benchmark gate: %d unbucketed vs %d pivoted",
			flat.Stats.MergeAttempts, res.Stats.MergeAttempts)
	}
	for _, eng := range hubEngines {
		if eng.opts.Workers == 0 {
			continue
		}
		par, err := fd.FullDisjunction(tables, schema, eng.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !par.Table.Equal(res.Table) || !reflect.DeepEqual(par.Prov, res.Prov) {
			t.Fatalf("%s: hub closure differs from sequential", eng.name)
		}
		if !eng.opts.RoundParallel && par.Stats.PivotGroups == 0 {
			t.Errorf("%s: pivot-partitioned engine did not engage on the hub", eng.name)
		}
	}
}
