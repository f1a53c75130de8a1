// Package fd implements the Full Disjunction operator — the associative
// extension of the outer join that integrates a set of tables maximally and
// without redundancy (Galindo-Legaria 1994; Rajaraman & Ullman 1996). The
// algorithm is the one ALITE uses (Khatiwada et al., VLDB 2022): project
// every input tuple onto the integrated schema (outer union), close the
// result under pairwise complementation (merge tuples that are consistent
// and connected), and remove subsumed tuples so only maximal integration
// results remain.
//
// # Engine architecture
//
// There is one Full Disjunction path, the incremental Index: a one-shot
// FullDisjunction is a fresh Index's single Update, and a session keeps
// the Index between Updates. The engine is dictionary-encoded and
// component-partitioned:
//
//   - At ingest every distinct cell value is interned into a dense uint32
//     symbol (intern.Null = 0 is the null cell), so a Tuple's cells are a
//     []uint32 and every hot-path operation — signature hashing,
//     posting-index probes, merge/consistency checks — runs on integer
//     compares and FNV-1a hashes over symbol slices. Strings are decoded
//     back only when a component's kept tuples are assembled.
//   - Ingest maintains the connected components of the mergeable-pair graph
//     (partition.go) as tuples arrive. No complementation merge and no
//     subsumption (bar the all-null tuple, folded globally by the assembly)
//     crosses a component boundary, so each component is closed
//     independently and the output is the components' kept tuples.
//   - There is one closure: the sequential worklist (closure.runFrom) over
//     pivot-bucketed posting lists, and its cost follows its output. Three
//     facts make it so (proofs in complement.go and subsume.go). One: every
//     closure tuple is reached by adding one base (outer-union) tuple at a
//     time — a connected set has an ordering with connected prefixes — so a
//     pair is attempted, once, iff one side is base. Two: a tuple is maximal
//     iff no attempt strictly extended it, so the result is read off the
//     expansion and no subsumer search follows. Three: nothing then probes
//     or scans for derived tuples, so a closure from scratch posts its base
//     tuples only; when a cached store is extended, the derived tuples still
//     unextended are posted, for the new base tuples to find.
//   - With Options.Workers > 1 components are scheduled by size — tiny ones
//     close inline, the rest are scheduled whole across workers — and one
//     rule decides the only other way a component is closed: a component
//     closing from scratch (no cached closure to extend) with at least
//     hubMinTuples tuples, holding at least half of the round's tuples (or
//     alone in it), for which choosePivot finds a pivot column, is closed
//     with every worker inside it by closePivotPar (pivotpar.go) — the same
//     worklist loop, run once per disjoint pivot-value group. Everything
//     else, at any Workers setting — every cached closure being extended,
//     every component without a pivot — is closed by that one loop, in place.
//   - The Index keeps every component's closure between Updates and makes
//     an update cost what its delta costs. A dirty component is re-closed
//     through one seeding path (Index.seed): the cached closure with the
//     largest store is the host and is extended in place — store, entry
//     flags, signature index, postings, worklist scratch — the stores of
//     smaller closures a merge brought in are appended behind it, and only
//     the new or changed tuples are expanded. Two rules keep the in-place
//     path honest: signatures ignore trailing null cells, so schema widening
//     invalidates nothing; and cached postings re-choose their pivot column
//     whenever the store has doubled, so a component first indexed small
//     does not probe unbucketed for life.
//
// Tuples carry provenance (the set of input tuple IDs they integrate), so
// downstream tasks such as entity matching can trace every output row back
// to its sources. A closure tuple's provenance is every input tuple it
// subsumes, so the maximal tuples that remain represent every input tuple:
// FD's guarantee holds with nothing to fold when subsumed tuples go.
package fd

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// TID identifies an input tuple: table index within the integration set and
// row index within that table.
type TID struct {
	Table, Row int
}

// String renders a TID like "t2.14".
func (t TID) String() string { return fmt.Sprintf("t%d.%d", t.Table, t.Row) }

// Tuple is one (possibly merged) tuple over the integrated schema. Cells
// are interned symbols from the computation's dictionary; intern.Null marks
// a null cell; the engine that produced a tuple decodes it.
type Tuple struct {
	Cells []uint32
	Prov  []TID // sorted, unique
}

// engine is the shared immutable state of one Full Disjunction round: a
// frozen snapshot of the value dictionary and the integrated schema width.
// All symbol decoding and value-order comparisons go through it, so the
// closures a round runs on worker goroutines read no mutable state.
type engine struct {
	dict  intern.Snapshot
	nCols int
}

// cmpCells orders tuples by cell values — null before any value, values by
// string order, cell by cell. This is the canonical output order: it is
// independent of symbol assignment, so results sort identically however
// the dictionary grew.
func (e *engine) cmpCells(a, b []uint32) int {
	for i := range a {
		if a[i] != b[i] {
			if e.dict.Less(a[i], b[i]) {
				return -1
			}
			return 1
		}
	}
	return 0
}

// decodeRow materializes interned cells as table cells.
func (e *engine) decodeRow(cells []uint32) table.Row {
	row := make(table.Row, len(cells))
	for i, sym := range cells {
		if sym == intern.Null {
			row[i] = table.Null()
		} else {
			row[i] = table.S(e.dict.Value(sym))
		}
	}
	return row
}

// materialize sorts tuples with distinct cells into canonical value order
// and decodes them into a Result — the operators' output path.
func (e *engine) materialize(kept []Tuple, schema Schema, stats Stats) *Result {
	slices.SortFunc(kept, func(a, b Tuple) int { return e.cmpCells(a.Cells, b.Cells) })
	out := table.New("FD", schema.Columns...)
	prov := make([][]TID, len(kept))
	for i, tp := range kept {
		out.Rows = append(out.Rows, e.decodeRow(tp.Cells))
		prov[i] = tp.Prov
	}
	stats.Output = len(kept)
	return &Result{Table: out, Prov: prov, Stats: stats}
}

// Schema maps each input table's columns onto the integrated (output)
// schema. Mapping[t][c] is the output column index for column c of table t;
// every output column collects at most one column per table (aligned
// columns from different tables share an output index).
type Schema struct {
	Columns []string
	Mapping [][]int
}

// IdentitySchema builds a Schema by aligning columns with identical names
// across tables — the baseline when headers are reliable. Output columns
// appear in first-seen order.
func IdentitySchema(tables []*table.Table) Schema {
	var s Schema
	index := make(map[string]int)
	s.Mapping = make([][]int, len(tables))
	for ti, t := range tables {
		s.Mapping[ti] = make([]int, len(t.Columns))
		for ci, name := range t.Columns {
			at, ok := index[name]
			if !ok {
				at = len(s.Columns)
				index[name] = at
				s.Columns = append(s.Columns, name)
			}
			s.Mapping[ti][ci] = at
		}
	}
	return s
}

// Validate checks that the schema is structurally sound for the given
// tables: mapping shape matches, output indices are in range, and no two
// columns of the same table map to the same output column.
func (s Schema) Validate(tables []*table.Table) error {
	if len(s.Mapping) != len(tables) {
		return fmt.Errorf("fd: schema maps %d tables, integration set has %d", len(s.Mapping), len(tables))
	}
	for ti, t := range tables {
		if len(s.Mapping[ti]) != len(t.Columns) {
			return fmt.Errorf("fd: schema maps %d columns for table %q, table has %d", len(s.Mapping[ti]), t.Name, len(t.Columns))
		}
		seen := make(map[int]int)
		for ci, out := range s.Mapping[ti] {
			if out < 0 || out >= len(s.Columns) {
				return fmt.Errorf("fd: table %q column %d maps to out-of-range output column %d", t.Name, ci, out)
			}
			if prev, dup := seen[out]; dup {
				return fmt.Errorf("fd: table %q columns %d and %d both map to output column %d", t.Name, prev, ci, out)
			}
			seen[out] = ci
		}
	}
	return nil
}

// Options tunes the Full Disjunction computation.
type Options struct {
	// Workers > 1 closes connected components concurrently: components
	// below a size threshold run inline, the rest are scheduled whole across
	// workers, and a hub — a component closing from scratch with at least
	// hubMinTuples tuples that holds at least half of the round's tuples
	// (or is alone) and has a pivot column — is closed with all workers
	// inside it, one pivot-value group at a time (pivotpar.go). A cached
	// closure being extended and a component without a pivot are closed
	// sequentially, in place, exactly as with Workers <= 1. 0 or 1 runs
	// sequentially. Output is byte-identical at every setting.
	Workers int
	// MaxTuples aborts the computation if the closure exceeds this many
	// tuples (a safety valve against pathological join blowup). 0 means
	// unlimited.
	MaxTuples int
	// MaxBytes aborts the computation with ErrMemoryBudget once the
	// estimated resident size of the closure state — the interned value
	// dictionary plus the live closure tuples across all components —
	// exceeds this many bytes. The estimate is a deliberately simple
	// linear model (dictionary bytes plus a per-tuple constant scaled by
	// schema width), cheap enough for the same shared atomic counter the
	// tuple budget uses; treat it as a resource ceiling, not allocator
	// accounting. 0 means unlimited.
	MaxBytes int64
	// NoPivot disables pivot-bucketed posting lists and scans flat posting
	// lists during the closure — the unbucketed path, kept as an ablation.
	// The pivot index is on by default: each component's posting lists are
	// sub-bucketed by its most selective column (see choosePivot), so
	// candidates that conflict on that column are skipped without being
	// iterated. Output is byte-identical either way; choosePivot already
	// declines to bucket a uniformly unselective component, so this switch
	// exists for measuring what the index saves, not for tuning.
	NoPivot bool
	// Progress, when non-nil, is called once per closed component, always
	// from the assembling goroutine (never concurrently), in completion
	// order. It must not block for long: with Workers > 1 it is on the path
	// that drains worker results.
	Progress func(ComponentProgress)
}

// ComponentProgress reports one component's closure completing.
type ComponentProgress struct {
	Done    int // components closed so far this run (1-based, monotonic)
	Total   int // components scheduled this run (Stats.DirtyComponents)
	Members int // outer-union tuples of the component that just closed
	Closure int // closure tuples of that component
	// PivotColumn is the output column the component's posting lists were
	// bucketed by, or -1 when the component ran unbucketed (NoPivot,
	// singleton, or no sufficiently selective column). PivotSkipped is the
	// candidate iterations that bucketing skipped inside this component.
	PivotColumn  int
	PivotSkipped int
}

// ErrTupleBudget is returned when the closure exceeds Options.MaxTuples.
var ErrTupleBudget = errors.New("fd: tuple budget exceeded")

// ErrMemoryBudget is returned when the estimated closure memory exceeds
// Options.MaxBytes.
var ErrMemoryBudget = errors.New("fd: memory budget exceeded")

// ErrCanceled marks an integration aborted by context cancellation or
// deadline expiry. Errors returned for a dead context match both this
// sentinel and the underlying context error under errors.Is.
var ErrCanceled = errors.New("integration canceled")

// canceledError wraps a context error so callers can match either
// ErrCanceled or context.Canceled/DeadlineExceeded.
type canceledError struct{ cause error }

func (e *canceledError) Error() string        { return "integration canceled: " + e.cause.Error() }
func (e *canceledError) Unwrap() error        { return e.cause }
func (e *canceledError) Is(target error) bool { return target == ErrCanceled }

// Canceled marks err as a cancellation: the result matches ErrCanceled and
// unwraps to err. Nil and already-marked errors pass through, so wrapping
// is idempotent across layers.
func Canceled(err error) error {
	if err == nil || errors.Is(err, ErrCanceled) {
		return err
	}
	return &canceledError{cause: err}
}

// Stats reports the work done by one Full Disjunction computation. For an
// incremental computation (Index.Update), the tuple counts describe the
// whole accumulated result while the work counters (Merges, MergeAttempts,
// DirtyComponents, ReclosedTuples) describe only the work this run
// actually performed — the gap between ReclosedTuples and Closure is the
// work the session amortized away.
type Stats struct {
	InputTuples       int
	OuterUnion        int   // tuples after outer union + dedup
	Values            int   // distinct non-null cell values in the dictionary
	ReusedValues      int   // distinct new-row values already interned by earlier runs (0 for one-shot)
	Components        int   // connected components of the outer union
	DirtyComponents   int   // components (re)closed this run (= Components for one-shot runs)
	LargestComp       int   // outer-union tuples in the largest component
	LargestClose      int   // closure tuples of the largest component
	Merges            int   // successful complementation merges this run
	MergeAttempts     int   // candidate pairs tested this run; each unordered pair is tried once, at any Workers setting
	Closure           int   // tuples after complementation closure
	ReclosedTuples    int   // closure tuples of the components (re)closed this run (= Closure for one-shot runs)
	SeedReusedTuples  int   // closure tuples seeded from previous runs instead of re-derived (incremental re-closure)
	SeedIndexedTuples int   // tuples posted to bring cached stores' postings up to date for re-closure: the delta, absorbed smaller closures, and at a store's first extension its unextended derived tuples — not the stores extended in place
	PivotColumn       int   // pivot column of the largest component (re)closed this run; -1 when it ran unbucketed
	PivotGroups       int   // disjoint pivot-value groups hubs were closed by (closePivotPar; 0 when no component was)
	PivotSkipped      int   // candidate iterations skipped by pivot bucketing this run
	PivotBuckets      int   // (list, pivot-value) buckets in the frozen parts of the posting indexes built or extended this run; a delta is not bucketed
	MemoryBytes       int64 // estimated peak resident bytes under the budget's linear model (0 when no budget was set)
	Subsumed          int   // tuples removed by subsumption
	Output            int
	Elapsed           time.Duration
}

// mergeWork folds another run's work counters into s — the per-component
// counters the closures report back through the assembler.
func (s *Stats) mergeWork(r Stats) {
	s.Merges += r.Merges
	s.MergeAttempts += r.MergeAttempts
	s.SeedIndexedTuples += r.SeedIndexedTuples
	s.PivotGroups += r.PivotGroups
	s.PivotSkipped += r.PivotSkipped
	s.PivotBuckets += r.PivotBuckets
}

// Result is an integrated table plus per-row provenance and statistics.
type Result struct {
	Table *table.Table
	Prov  [][]TID
	Stats Stats
}

// FullDisjunction integrates the tables under the given schema. The output
// rows are sorted by cell value order, so results are deterministic and
// directly comparable across algorithm variants.
func FullDisjunction(tables []*table.Table, schema Schema, opts Options) (*Result, error) {
	return FullDisjunctionContext(context.Background(), tables, schema, opts)
}

// FullDisjunctionContext is FullDisjunction under a context: cancellation
// and deadlines are observed at component boundaries and, inside a
// component, every cancelEvery candidate expansions — so even a single hub
// component that dominates the closure is interrupted promptly. A dead
// context yields an error matching ErrCanceled. It runs as a fresh Index's
// one Update, so one-shot and incremental results are the same code.
func FullDisjunctionContext(ctx context.Context, tables []*table.Table, schema Schema, opts Options) (*Result, error) {
	return NewIndex().UpdateContext(ctx, tables, schema, opts)
}

// outerUnion projects every input row onto the integrated schema, interning
// each distinct cell value into a fresh dictionary, and deduplicates by
// cell signature, unioning provenance — the operators' input.
func outerUnion(tables []*table.Table, schema Schema) (*engine, []Tuple) {
	dict := intern.NewDict()
	eng := &engine{nCols: len(schema.Columns)}
	var tuples []Tuple
	sigs := newSigIndex(0)
	for ti, t := range tables {
		for ri, row := range t.Rows {
			cells := make([]uint32, eng.nCols) // zero-valued = all null
			for ci, cell := range row {
				if !cell.IsNull {
					cells[schema.Mapping[ti][ci]] = dict.Intern(cell.Val)
				}
			}
			tid := TID{Table: ti, Row: ri}
			at, hash, ok := sigs.find(cells, tuples)
			if ok {
				tuples[at].Prov = mergeProv(tuples[at].Prov, []TID{tid})
				continue
			}
			sigs.addHashed(hash, len(tuples))
			tuples = append(tuples, Tuple{Cells: cells, Prov: []TID{tid}})
		}
	}
	// Interning is complete: closures never mint symbols (merged cells reuse
	// existing ones), so the engine freezes the dictionary here.
	eng.dict = dict.Snapshot()
	return eng, tuples
}

// mergeProv unions two sorted TID slices.
func mergeProv(a, b []TID) []TID {
	out := make([]TID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case tidLess(a[i], b[j]):
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func tidLess(a, b TID) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	return a.Row < b.Row
}

// provContains reports whether the sorted TID set super includes every TID
// of sub — the allocation-free fast path for duplicate-production folds,
// which in steady state (and especially during incremental re-closure)
// almost always carry provenance the target already has.
func provContains(super, sub []TID) bool {
	if len(sub) > len(super) {
		return false
	}
	i := 0
	for _, t := range sub {
		for i < len(super) && tidLess(super[i], t) {
			i++
		}
		if i >= len(super) || super[i] != t {
			return false
		}
		i++
	}
	return true
}

// tryMerge merges two tuples if they are consistent (no attribute holds two
// different non-null values) and connected (at least one attribute is
// non-null and equal in both). Returns the merged cells and true on
// success.
func tryMerge(a, b []uint32) ([]uint32, bool) {
	// nil buffer: tryMergeInto only writes after the consistency check
	// passes, so failed attempts allocate nothing.
	return tryMergeInto(nil, a, b)
}

// tryMergeInto is tryMerge writing into buf (grown as needed): closures
// reuse one buffer per worker, so the dominant duplicate
// productions — merges whose result already exists in the store — allocate
// nothing. The result aliases buf; clone it before storing.
func tryMergeInto(buf, a, b []uint32) ([]uint32, bool) {
	connected := false
	for i := range a {
		if a[i] == intern.Null || b[i] == intern.Null {
			continue
		}
		if a[i] != b[i] {
			return nil, false
		}
		connected = true
	}
	if !connected {
		return nil, false
	}
	buf = buf[:0]
	for i := range a {
		if a[i] == intern.Null {
			buf = append(buf, b[i])
		} else {
			buf = append(buf, a[i])
		}
	}
	return buf, true
}

// cloneCells copies a merge buffer into a fresh slice for storage.
func cloneCells(cells []uint32) []uint32 {
	out := make([]uint32, len(cells))
	copy(out, cells)
	return out
}

// nonNullCount reports the number of informative cells of a tuple.
func nonNullCount(cells []uint32) int {
	n := 0
	for _, c := range cells {
		if c != intern.Null {
			n++
		}
	}
	return n
}

// allNull reports whether a tuple carries no information (possible only
// for fully-empty input rows).
func allNull(cells []uint32) bool { return nonNullCount(cells) == 0 }
