package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
	"fuzzyfd/internal/wal"
)

// durableBatches is a small integration workload: overlapping tables whose
// join values include typo variants, so the fuzzy pipeline has work to do
// and components both merge and extend across batches.
func durableBatches() [][]*table.Table {
	t1 := table.New("people", "name", "city")
	t1.MustAppendRow(table.S("alice"), table.S("Berlin"))
	t1.MustAppendRow(table.S("bob"), table.S("Paris"))
	t2 := table.New("jobs", "name", "job")
	t2.MustAppendRow(table.S("alice"), table.S("eng"))
	t2.MustAppendRow(table.S("carol"), table.S("ops"))
	t3 := table.New("ages", "name", "age")
	t3.MustAppendRow(table.S("Alice"), table.S("33")) // fuzzy-matches alice
	t3.MustAppendRow(table.S("bob"), table.Null())
	t4 := table.New("pets", "name", "pet")
	t4.MustAppendRow(table.S("carol"), table.S("cat"))
	t5 := table.New("rooms", "name", "room")
	t5.MustAppendRow(table.S("dave"), table.S("4b"))
	return [][]*table.Table{{t1}, {t2}, {t3}, {t4}, {t5}}
}

// oracleResult integrates the given batches on a fresh in-memory session.
func oracleResult(t *testing.T, cfg Config, batches [][]*table.Table) (*Result, error) {
	t.Helper()
	s := NewSession(cfg)
	for _, b := range batches {
		if err := s.Append(b...); err != nil {
			t.Fatalf("oracle append: %v", err)
		}
	}
	return s.Integrate()
}

func sameResult(a, b *Result) bool {
	return a.Table.Equal(b.Table) && reflect.DeepEqual(a.Prov, b.Prov)
}

// durableScript drives one full session run against fs: append each batch,
// integrating (and thereby possibly auto-snapshotting) after every one.
// It returns the batches whose Append was acknowledged; any error after
// the crash budget fires is expected and ends the run.
func durableScript(fs *wal.MemFS, cfg Config, d Durability, batches [][]*table.Table) (acked [][]*table.Table) {
	s, err := OpenSession(cfg, "sess", d)
	if err != nil {
		return nil
	}
	defer s.Close()
	for _, b := range batches {
		if err := s.Append(b...); err != nil {
			return acked
		}
		acked = append(acked, b)
		if _, err := s.Integrate(); err != nil {
			return acked
		}
	}
	return acked
}

// The recovery property: crash the filesystem after every possible byte
// budget during a scripted run of appends, integrations, and snapshots;
// reopening must recover a session whose integration result is
// byte-identical — tables and provenance — to an in-memory session fed
// exactly the acknowledged batches. Swept across engine variants and
// snapshot cadences.
func TestDurableSessionCrashRecoveryProperty(t *testing.T) {
	batches := durableBatches()
	variants := []struct {
		name   string
		cfg    Config
		d      Durability
		stride int64 // sweep step; 1 = every byte
	}{
		{"equi-snap1", Config{Method: MethodEquiFD}, Durability{SnapshotEvery: 1}, 1},
		{"fuzzy-snap2-workers4", Config{FD: fd.Options{Workers: 4}}, Durability{SnapshotEvery: 2}, 7},
		{"equi-nosnap", Config{Method: MethodEquiFD}, Durability{SnapshotEvery: 1 << 30}, 5},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			dry := wal.NewMemFS()
			if got := durableScript(dry, v.cfg, withFS(v.d, dry), batches); len(got) != len(batches) {
				t.Fatalf("dry run acked %d/%d batches", len(got), len(batches))
			}
			total := dry.BytesWritten()
			if total == 0 {
				t.Fatal("dry run wrote nothing")
			}
			for n := int64(0); n <= total; n += v.stride {
				fs := wal.NewMemFS()
				fs.CrashAfterBytes(n)
				acked := durableScript(fs, v.cfg, withFS(v.d, fs), batches)
				fs.Crash()

				s, err := OpenSession(v.cfg, "sess", withFS(v.d, fs))
				if err != nil {
					t.Fatalf("budget %d: reopen: %v", n, err)
				}
				got, gerr := s.Integrate()
				if len(acked) == 0 {
					if !errors.Is(gerr, ErrNoTables) {
						t.Fatalf("budget %d: empty recovery: err = %v", n, gerr)
					}
					s.Close()
					continue
				}
				if gerr != nil {
					t.Fatalf("budget %d: integrate after recovery: %v", n, gerr)
				}
				want, werr := oracleResult(t, v.cfg, acked)
				if werr != nil {
					t.Fatalf("budget %d: oracle: %v", n, werr)
				}
				if !sameResult(got, want) {
					t.Fatalf("budget %d (%d/%d batches acked): recovered result diverges:\ngot\n%v %v\nwant\n%v %v",
						n, len(acked), len(batches), got.Table, got.Prov, want.Table, want.Prov)
				}
				// The revived session must stay writable end to end.
				extra := table.New("extra", "name", "note")
				extra.MustAppendRow(table.S("alice"), table.S("vip"))
				if err := s.Append(extra); err != nil {
					t.Fatalf("budget %d: append after recovery: %v", n, err)
				}
				if _, err := s.Integrate(); err != nil {
					t.Fatalf("budget %d: integrate after append: %v", n, err)
				}
				s.Close()
			}
		})
	}
}

func withFS(d Durability, fs wal.FS) Durability {
	d.FS = fs
	return d
}

// A clean close and reopen serves the identical result, in whichever order
// the batches arrived. The snapshot holds the tables only — dict.seg,
// manifest.json and tables.seg, even for a session of over a hundred
// components — and the first delta after the reopen does exactly the work
// it does in a session that never restarted: the reopen's first Integrate
// closes every component from the recovered tables, so the delta extends a
// closure store instead of re-closing from base tuples.
func TestDurableSessionCleanRestart(t *testing.T) {
	base := durableBatches()
	reorder := func(order ...int) [][]*table.Table {
		batches := make([][]*table.Table, len(order))
		for i, j := range order {
			batches[i] = base[j]
		}
		return batches
	}
	note := func(name string) *table.Table {
		t := table.New("notes", "name", "note")
		t.MustAppendRow(table.S(name), table.S("vip"))
		return t
	}
	wide := table.New("wide", "name", "tag")
	for i := 0; i < 120; i++ {
		wide.MustAppendRow(table.S(fmt.Sprintf("n%03d", i)), table.S(fmt.Sprintf("t%03d", i)))
	}
	cases := []struct {
		name      string
		cfg       Config
		batches   [][]*table.Table
		delta     *table.Table // joins an existing component
		minComps  int
		minReused int // SeedReusedTuples the delta's re-closure must take from a store
	}{
		{"order0", Config{}, reorder(0, 1, 2, 3, 4), note("alice"), 0, 1},
		{"order1", Config{}, reorder(4, 2, 0, 3, 1), note("alice"), 0, 1},
		{"wide", Config{Method: MethodEquiFD}, [][]*table.Table{{wide}}, note("n007"), 100, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := wal.NewMemFS()
			d := Durability{SnapshotEvery: 1 << 30, FS: fs}

			s, err := OpenSession(c.cfg, "sess", d)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range c.batches {
				if err := s.Append(b...); err != nil {
					t.Fatal(err)
				}
			}
			want, err := s.Integrate()
			if err != nil {
				t.Fatal(err)
			}
			if want.FDStats.Components < c.minComps {
				t.Fatalf("%d components, want at least %d", want.FDStats.Components, c.minComps)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			names, err := fs.ReadDir("sess/snap-1")
			if err != nil {
				t.Fatal(err)
			}
			if layout := []string{"dict.seg", "manifest.json", "tables.seg"}; !slices.Equal(names, layout) {
				t.Errorf("snapshot holds %v, want %v", names, layout)
			}

			s2, err := OpenSession(c.cfg, "sess", d)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			got, err := s2.Integrate()
			if err != nil {
				t.Fatalf("integrate after reopen: %v", err)
			}
			if !sameResult(got, want) {
				t.Fatalf("reopened result diverges:\ngot\n%v %v\nwant\n%v %v",
					got.Table, got.Prov, want.Table, want.Prov)
			}
			if err := s2.Append(c.delta); err != nil {
				t.Fatal(err)
			}
			got, err = s2.Integrate()
			if err != nil {
				t.Fatalf("delta after reopen: %v", err)
			}

			never := NewSession(c.cfg)
			for _, b := range c.batches {
				never.Append(b...)
			}
			if _, err := never.Integrate(); err != nil {
				t.Fatal(err)
			}
			never.Append(c.delta)
			ref, err := never.Integrate()
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, ref) {
				t.Fatalf("delta after reopen diverges:\ngot\n%v %v\nwant\n%v %v",
					got.Table, got.Prov, ref.Table, ref.Prov)
			}
			g, r := got.FDStats, ref.FDStats
			if g.MergeAttempts != r.MergeAttempts || g.SeedReusedTuples != r.SeedReusedTuples || g.ReclosedTuples != r.ReclosedTuples {
				t.Errorf("delta after reopen: %d merge attempts, %d seed-reused, %d reclosed tuples; never restarted: %d, %d, %d",
					g.MergeAttempts, g.SeedReusedTuples, g.ReclosedTuples, r.MergeAttempts, r.SeedReusedTuples, r.ReclosedTuples)
			}
			if r.SeedReusedTuples < c.minReused {
				t.Errorf("the delta reused %d closure tuples, want at least %d: it missed the cached component", r.SeedReusedTuples, c.minReused)
			}
		})
	}
}

// A flipped bit in a committed snapshot segment must fail the reopen with
// an error naming the corrupt snapshot — never silently drop state.
func TestDurableSessionDetectsSnapshotCorruption(t *testing.T) {
	fs := wal.NewMemFS()
	cfg := Config{Method: MethodEquiFD}
	d := Durability{SnapshotEvery: 1, FS: fs}
	s, err := OpenSession(cfg, "sess", d)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range durableBatches() {
		if err := s.Append(b...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Integrate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.FlipBit("sess/snap-1/tables.seg", 12, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSession(cfg, "sess", d); err == nil {
		t.Fatal("reopen succeeded on a corrupt committed snapshot")
	}
}

// After Close the session rejects writes but keeps serving reads.
func TestDurableSessionClosedRejectsWrites(t *testing.T) {
	fs := wal.NewMemFS()
	s, err := OpenSession(Config{Method: MethodEquiFD}, "sess", Durability{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(durableBatches()[0]...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Integrate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Append(durableBatches()[1]...); err == nil {
		t.Fatal("append accepted after close")
	}
	if s.Last() == nil {
		t.Error("reads stopped working after close")
	}
}
