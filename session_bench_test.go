package fuzzyfd

// BenchmarkSessionAmortized measures the tentpole of the serving scenario:
// K overlapping IMDB-shaped batches integrated through one Session (delta
// closure, persistent dictionary) versus K independent Integrate calls
// over the growing union (full recompute each time). The equi-join
// pipeline is benchmarked so the comparison isolates the Full Disjunction
// delta path; see TestSessionAmortizesClosureWork for why.
//
// Alongside the Go benchmark numbers, one instrumented pass per batch
// shape is written to BENCH_session.json (per-step wall clock plus
// DirtyComponents / ReclosedTuples / ReusedValues), so the perf trajectory
// tracks how much closure work the session amortizes away, not just total
// time. The top-level total_tuples and batches describe the extend and
// arrive shapes; chunks is 3 000 tuples in 20 row chunks per table.
//
// The report also records the heap a session keeps live: an equi session
// over the IMDB-shaped set at 8 000 and 30 000 tuples, its six tables added
// one at a time, measured after a GC (sessionLiveHeap). CI prints both and
// gates the 30 000-tuple value.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"fuzzyfd/internal/datagen"
)

const (
	sessionBenchSeed    = 42
	sessionBenchTuples  = 6000
	sessionBenchBatches = 5

	// The chunks shape is the benchmark's serve-durable ingestion pattern.
	sessionChunkTuples = 3000
	sessionChunkCount  = 20

	// sessionBenchMaxSteps caps the per-step records kept per shape.
	sessionBenchMaxSteps = 12
)

// sessionHeapTuples are the input sizes the live heap is measured at: the
// two ends of the paper's Figure 3 sweep, roughly.
var sessionHeapTuples = []int{8000, 30000}

// sessionBenchShapes orders the shapes in the report.
var sessionBenchShapes = []string{"extend", "arrive", "chunks"}

// sessionBenchSets builds the batch shapes of the serving scenario:
//
//   - "extend": the same six tables split into row-chunks — every batch
//     adds rows about the existing entities, so hub components keep going
//     dirty and the session saves only the clean tail;
//   - "arrive": independently drawn IMDB-shaped batches — mostly new
//     entities per batch over a shared vocabulary (the Gen-T/EcoTable
//     repeated-query regime), where old components stay clean and the
//     delta path pays for one batch regardless of history;
//   - "chunks": the six tables of a 3 000-tuple set arriving as 20 row
//     chunks each, every chunk a table of its own and an integration of its
//     own — what a daemon session sees when clients post rows as they come
//     (the benchmark's serve-durable workload). 120 small deltas: the shape
//     on which per-update cost must follow the delta, not the history.
func sessionBenchSets() map[string][][]*Table {
	extend := sessionRowBatches(sessionBenchSeed, sessionBenchTuples, sessionBenchBatches)
	arrive := make([][]*Table, sessionBenchBatches)
	for k := range arrive {
		arrive[k] = datagen.IMDB(datagen.IMDBConfig{
			Seed:        sessionBenchSeed + int64(k),
			TotalTuples: sessionBenchTuples / sessionBenchBatches,
		})
	}
	var chunks [][]*Table
	for _, batch := range sessionRowBatches(sessionBenchSeed, sessionChunkTuples, sessionChunkCount) {
		for _, t := range batch {
			if len(t.Rows) > 0 {
				chunks = append(chunks, []*Table{t})
			}
		}
	}
	return map[string][][]*Table{"extend": extend, "arrive": arrive, "chunks": chunks}
}

func BenchmarkSessionAmortized(b *testing.B) {
	sets := sessionBenchSets()
	opts := []Option{WithEquiJoin()}
	for _, shape := range sessionBenchShapes {
		batches := sets[shape]
		b.Run(shape+"/session", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := NewSession(opts...)
				if err != nil {
					b.Fatal(err)
				}
				for _, batch := range batches {
					s.Add(batch...)
					if _, err := s.Integrate(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(shape+"/independent", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var acc []*Table
				for _, batch := range batches {
					acc = append(acc, batch...)
					if _, err := Integrate(acc, opts...); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}

	if err := writeSessionBenchJSON("BENCH_session.json", sets, opts); err != nil {
		b.Logf("BENCH_session.json not written: %v", err)
	}
}

// sessionBenchStep is one per-batch measurement of the instrumented pass.
type sessionBenchStep struct {
	Batch           int     `json:"batch"`
	Tables          int     `json:"tables"`
	Rows            int     `json:"rows"`
	SessionMS       float64 `json:"session_ms"`
	IndependentMS   float64 `json:"independent_ms"`
	Components      int     `json:"components"`
	DirtyComponents int     `json:"dirty_components"`
	Closure         int     `json:"closure"`
	ReclosedTuples  int     `json:"reclosed_tuples"`
	SeedReused      int     `json:"seed_reused_tuples"`
	ReusedValues    int     `json:"reused_values"`
}

// sessionBenchShape is one shape's instrumented pass. SessionOverFinal is
// the whole session — every step's integration — measured in final
// one-shot integrations: what it cost to have had the result after every
// batch, relative to computing it once at the end. CI gates it for the
// chunks shape; a within-run ratio, so it transfers across machines.
//
// Totals cover every update; Steps lists at most sessionBenchMaxSteps of
// them, evenly spaced and ending with the last, so the 120-update chunks
// shape does not check in 120 records.
type sessionBenchShape struct {
	Shape            string             `json:"shape"`
	Updates          int                `json:"updates"`
	Steps            []sessionBenchStep `json:"steps"`
	SessionMS        float64            `json:"session_total_ms"`
	IndependentMS    float64            `json:"independent_total_ms"`
	Speedup          float64            `json:"speedup"`
	SessionOverFinal float64            `json:"session_over_final_oneshot_x"`
}

type sessionBenchReport struct {
	Benchmark   string              `json:"benchmark"`
	Method      string              `json:"method"`
	Seed        int64               `json:"seed"`
	TotalTuples int                 `json:"total_tuples"`
	Batches     int                 `json:"batches"`
	Shapes      []sessionBenchShape `json:"shapes"`
	LiveHeap    []sessionHeap       `json:"live_heap"`
}

// sessionHeap is the heap one session keeps live, and what the memory
// budget's linear model (Stats.MemoryBytes) estimates for it.
type sessionHeap struct {
	InputTuples   int     `json:"input_tuples"`
	LiveBytes     int64   `json:"live_heap_bytes"`
	PerTuple      float64 `json:"live_heap_bytes_per_input_tuple"`
	ModelBytes    int64   `json:"memory_model_bytes"`
	ModelOverLive float64 `json:"memory_model_over_live_x"`
}

// sessionLiveHeap integrates the IMDB-shaped set of n input tuples through
// one equi session, adding its six tables one at a time, and measures the
// heap the session holds after a GC: HeapAlloc with the session alive minus
// HeapAlloc before it was created (the input tables are made first, so
// they are in neither). pad widens every table by that many all-null
// columns of its own, so the integrated schema gains 6 × pad columns while
// the tuples, their values and the closure stay as they are. A memory
// budget too large to fire makes the session report the model's estimate.
func sessionLiveHeap(n, pad int) (sessionHeap, error) {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: sessionBenchSeed, TotalTuples: n})
	for k, t := range tables {
		tables[k] = padNullColumns(t, pad)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := NewSession(WithEquiJoin(), WithMemoryBudget(1<<62))
	if err != nil {
		return sessionHeap{}, err
	}
	for _, t := range tables {
		s.Add(t)
		if _, err := s.Integrate(); err != nil {
			return sessionHeap{}, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	h := sessionHeap{InputTuples: n, LiveBytes: int64(after.HeapAlloc) - int64(before.HeapAlloc), ModelBytes: s.Stats().MemoryBytes}
	runtime.KeepAlive(s)
	h.PerTuple = float64(h.LiveBytes) / float64(n)
	h.ModelOverLive = float64(h.ModelBytes) / float64(h.LiveBytes)
	return h, nil
}

// padNullColumns returns t with pad all-null columns appended, named after
// the table so that no two tables share one.
func padNullColumns(t *Table, pad int) *Table {
	if pad == 0 {
		return t
	}
	cols := slices.Clone(t.Columns)
	for k := range pad {
		cols = append(cols, fmt.Sprintf("%s_pad%d", t.Name, k))
	}
	out := NewTable(t.Name, cols...)
	for _, r := range t.Rows {
		row := slices.Clone(r)
		for range pad {
			row = append(row, Null())
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// writeSessionBenchJSON runs one instrumented session-vs-independent pass
// per batch shape and records per-step timings and reuse statistics.
func writeSessionBenchJSON(path string, sets map[string][][]*Table, opts []Option) error {
	report := sessionBenchReport{
		Benchmark:   "session_amortized",
		Method:      "equi",
		Seed:        sessionBenchSeed,
		TotalTuples: sessionBenchTuples,
		Batches:     sessionBenchBatches,
	}
	for _, shape := range sessionBenchShapes {
		sr := sessionBenchShape{Shape: shape, Updates: len(sets[shape])}
		stride := (sr.Updates + sessionBenchMaxSteps - 1) / sessionBenchMaxSteps
		finalMS := 0.0
		s, err := NewSession(opts...)
		if err != nil {
			return err
		}
		var acc []*Table
		for k, batch := range sets[shape] {
			s.Add(batch...)
			start := time.Now()
			res, err := s.Integrate()
			if err != nil {
				return err
			}
			sessionMS := float64(time.Since(start).Microseconds()) / 1000

			acc = append(acc, batch...)
			start = time.Now()
			if _, err := Integrate(acc, opts...); err != nil {
				return err
			}
			independentMS := float64(time.Since(start).Microseconds()) / 1000

			sr.SessionMS += sessionMS
			sr.IndependentMS += independentMS
			finalMS = independentMS
			if (k+1)%stride != 0 && k+1 != sr.Updates {
				continue
			}
			f := res.FDStats
			sr.Steps = append(sr.Steps, sessionBenchStep{
				Batch:           k + 1,
				Tables:          s.Tables(),
				Rows:            res.Table.NumRows(),
				SessionMS:       sessionMS,
				IndependentMS:   independentMS,
				Components:      f.Components,
				DirtyComponents: f.DirtyComponents,
				Closure:         f.Closure,
				ReclosedTuples:  f.ReclosedTuples,
				SeedReused:      f.SeedReusedTuples,
				ReusedValues:    f.ReusedValues,
			})
		}
		if sr.SessionMS > 0 {
			sr.Speedup = sr.IndependentMS / sr.SessionMS
			sr.SessionOverFinal = sr.SessionMS / finalMS
		}
		report.Shapes = append(report.Shapes, sr)
	}
	for _, n := range sessionHeapTuples {
		h, err := sessionLiveHeap(n, 0)
		if err != nil {
			return err
		}
		report.LiveHeap = append(report.LiveHeap, h)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
