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
// hub as a standalone single-component integration set and races the
// sequential worklist closure against its decomposition into pivot-value
// groups — what Workers > 1 runs for a closure from scratch with a pivot,
// which this fixture has.

// hubTables extracts the largest connected component of an IMDB-shaped
// workload with total input tuples, materialized as a one-table
// integration set whose Full Disjunction is exactly the hub's closure.
func hubTables(total int) []*table.Table {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: total})
	return []*table.Table{fd.ExtractLargestComponent(tables, fd.IdentitySchema(tables))}
}

// hubEngines are the engine variants the hub benchmark and BENCH_fd.json
// sweep: the sequential baseline, its unbucketed ablation (the pivot
// attempt-reduction gate compares the two), and the pivot-group closure
// across worker counts.
var hubEngines = []struct {
	name string
	opts fd.Options
}{
	{"seq", fd.Options{}},
	{"seq-nopivot", fd.Options{NoPivot: true}},
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
	// The CI gates read the file this run writes, so failing to write it is
	// an error, not a log line.
	if err := writeHubBenchJSON("../../BENCH_fd.json", tables, schema); err != nil {
		b.Errorf("BENCH_fd.json not written: %v", err)
	}
}

// hubBenchReps is how many instrumented passes each measurement gets; MS
// keeps the best one, so a GC pause or scheduler hiccup in one pass cannot
// fake a regression (or an inversion in the worker-count scaling curve).
const hubBenchReps = 5

// hubDeltaRows is the size of the second Update in the hub_delta
// measurement: a delta well past hubMinTuples into a cached hub.
const hubDeltaRows = 1184

// hubBenchEngine is one engine's instrumented measurement. MergeAttempts
// and PivotSkipped version the attempt-reduction claim alongside the
// timing: skipped candidates are exactly the iterations the unbucketed
// closure would have spent failing the consistency check. Allocs/AllocBytes
// are the heap traffic of a single pass.
type hubBenchEngine struct {
	Name          string  `json:"name"`
	Workers       int     `json:"workers"`
	MS            float64 `json:"ms"`
	Allocs        uint64  `json:"allocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	MergeAttempts int     `json:"merge_attempts"`
	PivotSkipped  int     `json:"pivot_skipped"`
}

// hubBenchProcs is the engine sweep at one GOMAXPROCS setting.
// Pivot8VsSeq is seq's time over pivot-par8's.
type hubBenchProcs struct {
	GoMaxProcs  int              `json:"gomaxprocs"`
	Engines     []hubBenchEngine `json:"engines"`
	Pivot8VsSeq float64          `json:"pivot8_vs_seq_speedup"`
}

// hubBenchDelta times the second Update of a session over the hub: the
// last DeltaRows rows arriving after the rest has been closed and cached.
// A cached closure is extended in place at any Workers setting, so
// Par8VsSeq (sequential time over Workers 8 time) gates that Workers never
// pessimizes that path.
type hubBenchDelta struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	DeltaRows  int     `json:"delta_rows"`
	SeqMS      float64 `json:"seq_ms"`
	Par8MS     float64 `json:"par8_ms"`
	Par8VsSeq  float64 `json:"par8_vs_seq_speedup"`
}

// hubBenchReport is the BENCH_fd.json schema. Every CI gate on it is a
// ratio measured within one run, so the gates transfer across machines of
// different absolute speed. Parallel-beats-sequential is gated where
// parallelism exists — MultiProc, GOMAXPROCS = min(NumCPU, 8), absent on a
// one-CPU machine — and OneProc is the no-worse-than-sequential sanity row.
// PivotAttemptReduction is the factor by which the pivot index cuts the
// sequential closure's merge attempts on the hub, and
// AttemptsPerClosureTuple what the sequential closure spends per tuple it
// stores: a closure tuple meets base tuples only, so this follows the
// component's base fan-out, not the closure's size.
type hubBenchReport struct {
	Benchmark             string         `json:"benchmark"`
	NumCPU                int            `json:"num_cpu"`
	TotalTuples           int            `json:"total_tuples"`
	HubMembers            int            `json:"hub_members"`
	HubClosure            int            `json:"hub_closure"`
	PivotColumn           string         `json:"pivot_column"`
	OneProc               hubBenchProcs  `json:"one_proc"`
	MultiProc             *hubBenchProcs `json:"multi_proc,omitempty"`
	HubDelta              hubBenchDelta  `json:"hub_delta"`
	PivotAttemptReduction float64        `json:"pivot_attempt_reduction"`

	AttemptsPerClosureTuple float64 `json:"attempts_per_closure_tuple"`
}

// writeHubBenchJSON measures the hub fixture at GOMAXPROCS 1 and at
// min(NumCPU, 8) — setting GOMAXPROCS itself and restoring it — and records
// best-of wall clock, per-pass heap traffic, merge-attempt counters, and
// the derived ratios.
func writeHubBenchJSON(path string, tables []*table.Table, schema fd.Schema) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	report := hubBenchReport{
		Benchmark:   "closure_hub",
		NumCPU:      runtime.NumCPU(),
		TotalTuples: 8000,
		HubMembers:  len(tables[0].Rows),
	}
	multi := min(runtime.NumCPU(), 8)

	runtime.GOMAXPROCS(1)
	one, seq, err := hubBenchSweep(tables, schema)
	if err != nil {
		return err
	}
	report.OneProc = one
	report.HubClosure = seq.Closure
	report.PivotColumn = schema.Columns[seq.PivotColumn]
	report.PivotAttemptReduction = float64(one.engine("seq-nopivot").MergeAttempts) / float64(seq.MergeAttempts)
	report.AttemptsPerClosureTuple = float64(seq.MergeAttempts) / float64(seq.Closure)
	if multi > 1 {
		runtime.GOMAXPROCS(multi)
		m, _, err := hubBenchSweep(tables, schema)
		if err != nil {
			return err
		}
		report.MultiProc = &m
	}
	if report.HubDelta, err = hubBenchDeltaRun(tables, schema); err != nil {
		return err
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hubBenchSweep runs hubBenchReps instrumented passes per engine at the
// current GOMAXPROCS — the engines alternating within each round of passes,
// so that machine drift lands on all of them — and returns the rows plus
// the seq engine's Stats. The unbucketed ablation runs once: only its
// attempt count is compared, and that is deterministic.
func hubBenchSweep(tables []*table.Table, schema fd.Schema) (hubBenchProcs, fd.Stats, error) {
	out := hubBenchProcs{GoMaxProcs: runtime.GOMAXPROCS(0), Engines: make([]hubBenchEngine, len(hubEngines))}
	var seq fd.Stats
	for rep := 0; rep < hubBenchReps; rep++ {
		for ei, eng := range hubEngines {
			if rep > 0 && eng.opts.NoPivot {
				continue
			}
			row := &out.Engines[ei]
			var before, after runtime.MemStats
			runtime.GC() // every pass starts from the same heap
			runtime.ReadMemStats(&before)
			start := time.Now()
			res, err := fd.FullDisjunction(tables, schema, eng.opts)
			if err != nil {
				return out, seq, err
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			runtime.ReadMemStats(&after)
			if rep == 0 {
				// Mallocs/TotalAlloc are monotone process counters; the
				// first pass's delta is the engine's heap traffic (the
				// driver runs nothing else concurrently).
				*row = hubBenchEngine{
					Name:          eng.name,
					Workers:       max(eng.opts.Workers, 1),
					Allocs:        after.Mallocs - before.Mallocs,
					AllocBytes:    after.TotalAlloc - before.TotalAlloc,
					MergeAttempts: res.Stats.MergeAttempts,
					PivotSkipped:  res.Stats.PivotSkipped,
				}
				if eng.name == "seq" {
					seq = res.Stats
				}
			}
			if rep == 0 || ms < row.MS {
				row.MS = ms
			}
		}
	}
	out.Pivot8VsSeq = out.engine("seq").MS / out.engine("pivot-par8").MS
	return out, seq, nil
}

// engine returns the sweep's row for the named engine.
func (p hubBenchProcs) engine(name string) hubBenchEngine {
	for _, e := range p.Engines {
		if e.Name == name {
			return e
		}
	}
	panic("no hub engine " + name)
}

// hubBenchDeltaRun times, at the current GOMAXPROCS, the second Update of
// a two-Update session over the hub — best of hubBenchReps fresh sessions
// per Workers setting, the two settings alternating, and alternating which
// goes first, so that machine drift lands on both.
func hubBenchDeltaRun(tables []*table.Table, schema fd.Schema) (hubBenchDelta, error) {
	out := hubBenchDelta{GoMaxProcs: runtime.GOMAXPROCS(0), DeltaRows: hubDeltaRows}
	hub := tables[0]
	head := table.New(hub.Name, hub.Columns...)
	head.Rows = hub.Rows[:len(hub.Rows)-hubDeltaRows]
	second := func(workers int, best *float64) error {
		x := fd.NewIndex()
		opts := fd.Options{Workers: workers}
		if _, err := x.Update([]*table.Table{head}, schema, opts); err != nil {
			return err
		}
		runtime.GC() // the first Update's garbage is not the second's to collect
		start := time.Now()
		if _, err := x.Update(tables, schema, opts); err != nil {
			return err
		}
		if ms := float64(time.Since(start).Microseconds()) / 1000; *best == 0 || ms < *best {
			*best = ms
		}
		return nil
	}
	sides := []struct {
		workers int
		best    *float64
	}{{1, &out.SeqMS}, {8, &out.Par8MS}}
	for rep := 0; rep < hubBenchReps; rep++ {
		for _, s := range sides {
			if err := second(s.workers, s.best); err != nil {
				return out, err
			}
		}
		sides[0], sides[1] = sides[1], sides[0] // the other side goes first next time
	}
	out.Par8VsSeq = out.SeqMS / out.Par8MS
	return out, nil
}

// TestHubFixtureSingleComponent pins the benchmark's premise: the
// extracted hub really is one connected component, large enough that
// intra-component parallelism (not component scheduling) is what's being
// measured, and every setting closes it byte-identically.
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
		if par.Stats.PivotGroups == 0 {
			t.Errorf("%s: the hub was not closed by pivot groups", eng.name)
		}
	}
}

// TestPivotParAllocatesLikeSequential: closing the IMDB 8 000 workload with
// its hub split into pivot groups allocates within 5 % of the sequential
// closure. The groups' stores are assembled into one store sized exactly
// once; sized from the seeds alone, the appends regrew it and Workers 2
// allocated 12 % more.
func TestPivotParAllocatesLikeSequential(t *testing.T) {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: 8000})
	schema := fd.IdentitySchema(tables)
	alloc := func(workers int) uint64 {
		var least uint64
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := fd.FullDisjunction(tables, schema, fd.Options{Workers: workers})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if workers > 1 && res.Stats.PivotGroups == 0 {
				t.Fatal("the hub was not closed by pivot groups")
			}
			if n := after.TotalAlloc - before.TotalAlloc; least == 0 || n < least {
				least = n
			}
		}
		return least
	}
	seq, par := alloc(1), alloc(2)
	t.Logf("allocated: Workers 1 %.2f MB, Workers 2 %.2f MB", float64(seq)/1e6, float64(par)/1e6)
	if float64(par) > 1.05*float64(seq) {
		t.Errorf("Workers 2 allocates %.2f MB, more than 5 %% over Workers 1's %.2f MB", float64(par)/1e6, float64(seq)/1e6)
	}
}
