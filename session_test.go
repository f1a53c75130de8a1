package fuzzyfd

import (
	"math/rand"
	"reflect"
	"testing"

	"fuzzyfd/internal/datagen"
)

// chunkTables splits an integration set into batches of batchSize tables.
func chunkTables(tables []*Table, batchSize int) [][]*Table {
	var out [][]*Table
	for i := 0; i < len(tables); i += batchSize {
		j := i + batchSize
		if j > len(tables) {
			j = len(tables)
		}
		out = append(out, tables[i:j])
	}
	return out
}

// permuted returns the batches reordered by perm.
func permuted(batches [][]*Table, perm []int) [][]*Table {
	out := make([][]*Table, len(batches))
	for i, p := range perm {
		out[i] = batches[p]
	}
	return out
}

// flatten concatenates batches into one integration set.
func flatten(batches [][]*Table) []*Table {
	var out []*Table
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// The session contract, as a property over batch orders and engine
// variants: adding batches in ANY order and integrating after each batch
// must produce tables and provenance byte-identical to a one-shot Integrate
// over the union (in the same add order). This extends the engine
// equivalence harness of internal/fd/equivalence_test.go to the public,
// full-pipeline API — the EMBench sets exercise value matching (including
// cluster drift across batches, which forces index rebuilds), IMDB
// exercises the pure-FD delta path.
func TestSessionAnyBatchOrderMatchesIntegrate(t *testing.T) {
	type gen struct {
		name   string
		tables func() []*Table
	}
	gens := []gen{
		{"imdb", func() []*Table {
			return datagen.IMDB(datagen.IMDBConfig{Seed: 3, TotalTuples: 400})
		}},
		{"embench", func() []*Table {
			return datagen.EMBench(datagen.EMConfig{Seed: 5, Entities: 30}).Tables
		}},
	}
	variants := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"equi", []Option{WithEquiJoin()}},
	}
	r := rand.New(rand.NewSource(99))
	for _, g := range gens {
		tables := g.tables()
		batches := chunkTables(tables, 2)
		perms := [][]int{r.Perm(len(batches)), r.Perm(len(batches))}
		perms = append([][]int{identity(len(batches))}, perms...)
		for _, v := range variants {
			for pi, perm := range perms {
				s, err := NewSession(v.opts...)
				if err != nil {
					t.Fatal(err)
				}
				ordered := permuted(batches, perm)
				var added [][]*Table
				for k, batch := range ordered {
					s.Add(batch...)
					added = append(added, batch)
					got, err := s.Integrate()
					if err != nil {
						t.Fatalf("%s/%s perm %d step %d: %v", g.name, v.name, pi, k, err)
					}
					want, err := Integrate(flatten(added), v.opts...)
					if err != nil {
						t.Fatalf("%s/%s perm %d step %d oneshot: %v", g.name, v.name, pi, k, err)
					}
					if !got.Table.Equal(want.Table) {
						t.Fatalf("%s/%s perm %v step %d: tables differ\nsession:\n%v\noneshot:\n%v",
							g.name, v.name, perm, k, got.Table, want.Table)
					}
					if !reflect.DeepEqual(got.Prov, want.Prov) {
						t.Fatalf("%s/%s perm %v step %d: provenance differs", g.name, v.name, perm, k)
					}
				}
			}
		}
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// sessionRowBatches splits an IMDB-shaped set into nBatches overlapping
// row-chunks: batch k holds the same six tables restricted to its chunk of
// rows, so later batches keep joining into the key space of earlier ones.
func sessionRowBatches(seed int64, totalTuples, nBatches int) [][]*Table {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: seed, TotalTuples: totalTuples})
	batches := make([][]*Table, nBatches)
	for k := 0; k < nBatches; k++ {
		batches[k] = make([]*Table, len(tables))
		for ti, tb := range tables {
			lo := len(tb.Rows) * k / nBatches
			hi := len(tb.Rows) * (k + 1) / nBatches
			nt := NewTable(tb.Name, tb.Columns...)
			nt.Rows = tb.Rows[lo:hi]
			batches[k][ti] = nt
		}
	}
	return batches
}

// A session that grows by overlapping row-batches must do measurably less
// closure work than a recompute: later integrations re-close only dirty
// components and reuse dictionary entries. The equi-join pipeline isolates
// the Full Disjunction delta path (fuzzy matching over batch-split columns
// re-elects representatives, which correctly forces index rebuilds — the
// property test above covers that regime).
func TestSessionAmortizesClosureWork(t *testing.T) {
	batches := sessionRowBatches(42, 1200, 4)
	s, err := NewSession(WithEquiJoin())
	if err != nil {
		t.Fatal(err)
	}
	nTables := 0
	for k, batch := range batches {
		s.Add(batch...)
		nTables += len(batch)
		res, err := s.Integrate()
		if err != nil {
			t.Fatal(err)
		}
		f := res.FDStats
		if k == 0 {
			continue
		}
		if f.ReclosedTuples >= f.Closure {
			t.Errorf("step %d: reclosed %d of %d closure tuples — no amortization", k+1, f.ReclosedTuples, f.Closure)
		}
		if f.DirtyComponents >= f.Components {
			t.Errorf("step %d: all %d components dirty", k+1, f.Components)
		}
		if f.ReusedValues == 0 {
			t.Errorf("step %d: no dictionary reuse", k+1)
		}
	}
	if got := s.Tables(); got != nTables {
		t.Errorf("Tables()=%d want %d", got, nTables)
	}
}

// Session error paths: integrating an empty session fails like Integrate
// on an empty set, and bad options surface at construction.
func TestSessionErrors(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Integrate(); err == nil {
		t.Error("empty session integrated without error")
	}
	if _, err := NewSession(WithThreshold(2)); err == nil {
		t.Error("invalid option accepted")
	}
}

// The match warm-up knob must flow into MatchValues (it used to be
// silently ignored on that path): results are identical across worker
// counts, and the default embedder path matches an explicit model.
func TestMatchValuesWorkersAndDefaultEmbedder(t *testing.T) {
	cols := [][]string{
		{"Berlin", "Toronto", "Barcelona"},
		{"Berlinn", "toronto", "Boston"},
	}
	base, err := MatchValues(cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		got, err := MatchValues(cols, WithMatchWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d changed MatchValues output", workers)
		}
	}
	explicit, err := MatchValues(cols, WithModel(ModelMistral))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(explicit, base) {
		t.Error("default embedder differs from explicit Mistral")
	}
}
