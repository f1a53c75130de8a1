package fd_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
)

// The closure attempts a pair only when one side is a base tuple, reads
// maximality off the attempts, and posts derived tuples only on a store that
// is being extended (complement.go). These tests pin the two invariants that
// design rests on — provenance is the fixpoint {b base : b ⊑ T}, the output
// is the ⊑-maximal closure tuples — against checks that share none of its
// machinery, and the two cases where it is easiest to get wrong.

// factVariants are the closure variants every check runs under.
var factVariants = []fd.Options{{}, {NoPivot: true}, {Workers: 4}}

// provFixpoint returns, for every row of out, the TIDs of the input rows it
// subsumes or equals — computed from the input tables alone. Fully-null input
// rows are below every row and are folded by a rule of their own; the shapes
// used here have none.
func provFixpoint(view []*table.Table, schema fd.Schema, out *table.Table) [][]fd.TID {
	prov := make([][]fd.TID, len(out.Rows))
	for ti, t := range view {
		for ri, row := range t.Rows {
			for k, T := range out.Rows {
				below := true
				for ci, cell := range row {
					if o := T[schema.Mapping[ti][ci]]; !cell.IsNull && (o.IsNull || o.Val != cell.Val) {
						below = false
						break
					}
				}
				if below {
					prov[k] = append(prov[k], fd.TID{Table: ti, Row: ri})
				}
			}
		}
	}
	return prov
}

// antichain reports the first pair of rows where one subsumes or equals the
// other.
func antichain(out *table.Table) error {
	for i, u := range out.Rows {
		for j, t := range out.Rows {
			if i == j {
				continue
			}
			below := true
			for c := range t {
				if !t[c].IsNull && (u[c].IsNull || u[c].Val != t[c].Val) {
					below = false
					break
				}
			}
			if below {
				return fmt.Errorf("row %d %v is below row %d %v", j, t, i, u)
			}
		}
	}
	return nil
}

// TestClosureInvariantsOnDatagenSets feeds each datagen shape to an Index as
// row chunks in a random arrival order, under every variant. After every
// Update the output is an antichain whose provenance is the fixpoint, and the
// final result — Index and one-shot alike — is byte-identical to the flat
// reference, whose maximal tuples come from the search-based subsume rather
// than from the closure's marks.
func TestClosureInvariantsOnDatagenSets(t *testing.T) {
	shapes := []struct {
		name   string
		tables func(seed int64) []*table.Table
	}{
		{"imdb", func(seed int64) []*table.Table {
			return datagen.IMDB(datagen.IMDBConfig{Seed: seed, TotalTuples: 700})
		}},
		{"embench", func(seed int64) []*table.Table {
			return datagen.EMBench(datagen.EMConfig{Seed: seed, Entities: 50}).Tables
		}},
		{"skewed", func(seed int64) []*table.Table {
			return datagen.Skewed(datagen.SkewConfig{Seed: seed, Items: 200})
		}},
	}
	const nChunks = 3
	for _, shape := range shapes {
		for _, seed := range []int64{1, 7} {
			tables := shape.tables(seed)
			r := rand.New(rand.NewSource(seed))
			var script []int // table whose next chunk arrives
			for ti := range tables {
				for k := 0; k < nChunks; k++ {
					script = append(script, ti)
				}
			}
			r.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })

			for _, opts := range factVariants {
				label := fmt.Sprintf("%s seed %d opts %+v", shape.name, seed, opts)
				x := fd.NewIndex()
				chunks := make([]int, len(tables))
				var arrived []int // tables in order of first arrival
				var view []*table.Table
				var got *fd.Result
				for step, ti := range script {
					if chunks[ti] == 0 {
						arrived = append(arrived, ti)
					}
					chunks[ti]++
					view = make([]*table.Table, len(arrived))
					for vi, si := range arrived {
						src := tables[si]
						view[vi] = table.New(src.Name, src.Columns...)
						view[vi].Rows = src.Rows[:len(src.Rows)*chunks[si]/nChunks]
					}
					schema := fd.IdentitySchema(view)
					var err error
					if got, err = x.Update(view, schema, opts); err != nil {
						t.Fatalf("%s step %d: %v", label, step, err)
					}
					if err := antichain(got.Table); err != nil {
						t.Fatalf("%s step %d: output is not the maximal tuples: %v", label, step, err)
					}
					if want := provFixpoint(view, schema, got.Table); !reflect.DeepEqual(got.Prov, want) {
						t.Fatalf("%s step %d: provenance is not {b base : b ⊑ T}", label, step)
					}
				}
				schema := fd.IdentitySchema(view)
				ref, err := fd.FlatReference(view, schema)
				if err != nil {
					t.Fatal(err)
				}
				if !fd.ResultsIdentical(got, ref) {
					t.Errorf("%s: incremental result differs from the flat reference", label)
				}
				once, err := fd.FullDisjunction(view, schema, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !fd.ResultsIdentical(once, ref) {
					t.Errorf("%s: one-shot result differs from the flat reference", label)
				}
			}
		}
	}
}

// TestHubAttemptsBelowPairwiseClosure pins that the loop is the base-only
// one: on the hub fixture of BENCH_fd.json the closure that attempted every
// connected pair once made 1 193 347 attempts (the file as recorded before
// this loop); a tuple that meets base tuples only makes fewer — the same
// number sequentially and by pivot groups — and closes to the same result
// as the flat reference.
func TestHubAttemptsBelowPairwiseClosure(t *testing.T) {
	const pairwiseAttempts = 1193347
	tables := hubTables(8000)
	schema := fd.IdentitySchema(tables)
	seq, err := fd.FullDisjunction(tables, schema, fd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := fd.FullDisjunction(tables, schema, fd.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.PivotGroups == 0 {
		t.Fatal("fixture: the hub was not closed by pivot groups")
	}
	for name, res := range map[string]*fd.Result{"sequential": seq, "pivot groups": par} {
		if res.Stats.MergeAttempts >= pairwiseAttempts {
			t.Errorf("%s: %d merge attempts, want fewer than the pairwise closure's %d", name, res.Stats.MergeAttempts, pairwiseAttempts)
		}
	}
	if par.Stats.MergeAttempts != seq.Stats.MergeAttempts {
		t.Errorf("%d merge attempts by pivot groups, %d sequentially", par.Stats.MergeAttempts, seq.Stats.MergeAttempts)
	}
	if !fd.ResultsIdentical(par, seq) {
		t.Error("pivot groups differ from the sequential closure")
	}
	ref, err := fd.FlatReference(tables, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !fd.ResultsIdentical(seq, ref) {
		t.Error("hub closure differs from the flat reference")
	}
}

// TestSubsumedTupleStillMerges is the soundness case against dropping
// subsumed tuples early: t = (1,a) is subsumed by t' = (1,a,b), and the
// partner (1,·,c,d) merges with t but conflicts with t' on y. Both maximal
// tuples, (1,a,b,·) and (1,a,c,d), must come out — in every arrival order,
// one-shot and incrementally, with t's row in the provenance of both.
func TestSubsumedTupleStillMerges(t *testing.T) {
	t1 := table.New("T1", "k", "x")
	t1.MustAppendRow(table.S("1"), table.S("a"))
	t2 := table.New("T2", "k", "x", "y")
	t2.MustAppendRow(table.S("1"), table.S("a"), table.S("b"))
	t3 := table.New("T3", "k", "y", "z")
	t3.MustAppendRow(table.S("1"), table.S("c"), table.S("d"))
	tables := []*table.Table{t1, t2, t3}

	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		view := make([]*table.Table, len(order))
		for i, ti := range order {
			view[i] = tables[ti]
		}
		schema := fd.IdentitySchema(view)
		want, err := fd.NaiveFD(view, schema)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Table.Rows) != 2 {
			t.Fatalf("order %v: the oracle keeps %d rows, want the two maximal tuples:\n%v", order, len(want.Table.Rows), want.Table)
		}
		for _, prov := range want.Prov {
			if len(prov) != 2 {
				t.Fatalf("order %v: oracle provenance %v, want t's row and one other in each", order, want.Prov)
			}
		}
		for _, opts := range factVariants {
			got, err := fd.FullDisjunction(view, schema, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !fd.ResultsIdentical(got, want) {
				t.Errorf("order %v opts %+v: one-shot\n%v %v\nwant\n%v %v", order, opts, got.Table, got.Prov, want.Table, want.Prov)
			}
			x := fd.NewIndex()
			for k := 1; k <= len(view); k++ {
				if got, err = x.Update(view[:k], fd.IdentitySchema(view[:k]), opts); err != nil {
					t.Fatal(err)
				}
			}
			if !fd.ResultsIdentical(got, want) {
				t.Errorf("order %v opts %+v: incremental\n%v %v\nwant\n%v %v", order, opts, got.Table, got.Prov, want.Table, want.Prov)
			}
		}
	}
}

// TestIndexBaseRowEqualsDerivedTuple: a new base row whose cells equal a
// tuple the cached closure derived lands on that tuple's store position
// (Index.seed). From then on the position is a base tuple: later derived
// tuples probe base postings only, so it has to be in them — otherwise the
// row of D below never meets (k,x,y), which stays in the output beside
// (k,x,y,z) and never lends it its provenance. Checked at the store's first
// extension (the derived postings do not exist yet) and after one (they do,
// and hold the position), against one-shot FullDisjunction after every step.
func TestIndexBaseRowEqualsDerivedTuple(t *testing.T) {
	one := func(name string, cols []string, cells ...string) *table.Table {
		tb := table.New(name, cols...)
		row := make(table.Row, len(cells))
		for i, c := range cells {
			row[i] = table.S(c)
		}
		tb.Rows = append(tb.Rows, row)
		return tb
	}
	a := one("A", []string{"k", "x"}, "k1", "x1")
	b := one("B", []string{"k", "y"}, "k1", "y1")
	c := one("C", []string{"k", "x", "y"}, "k1", "x1", "y1") // equals merge(A, B)
	d := one("D", []string{"k", "z"}, "k1", "z1")
	e := one("E", []string{"k", "w"}, "k1", "w1")

	for _, tc := range []struct {
		name  string
		first int // tables of the first Update
		steps []*table.Table
	}{
		{"at the first extension", 2, []*table.Table{a, b, c, d}},
		{"on a store already extended", 2, []*table.Table{a, b, e, c, d}},
	} {
		for _, workers := range []int{1, 4} {
			opts := fd.Options{Workers: workers}
			x := fd.NewIndex()
			for k := tc.first; k <= len(tc.steps); k++ {
				view := tc.steps[:k]
				schema := fd.IdentitySchema(view)
				got, err := x.Update(view, schema, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fd.FullDisjunction(view, schema, fd.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !fd.ResultsIdentical(got, want) {
					t.Errorf("%s, workers %d, after %s: incremental\n%v %v\nwant\n%v %v",
						tc.name, workers, view[k-1].Name, got.Table, got.Prov, want.Table, want.Prov)
				}
			}
			if x.Rebuilds() != 0 {
				t.Errorf("%s, workers %d: %d rebuilds, the cached store was not extended", tc.name, workers, x.Rebuilds())
			}
		}
	}
}
