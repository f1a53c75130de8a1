package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

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
// integrating after every one. It returns the batches whose Append was
// acknowledged; any error after the crash budget fires is expected and ends
// the run.
func durableScript(fs *wal.MemFS, cfg Config, batches [][]*table.Table) (acked [][]*table.Table) {
	s, err := OpenSession(cfg, "sess", fs)
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
// budget during a scripted run of appends and integrations; reopening must
// recover a session whose integration result is byte-identical — tables
// and provenance — to an in-memory session fed exactly the acknowledged
// batches. Swept across engine variants.
func TestDurableSessionCrashRecoveryProperty(t *testing.T) {
	batches := durableBatches()
	variants := []struct {
		name  string
		cfg   Config
		procs int // GOMAXPROCS for the variant (0: as set)
	}{
		{"equi-nosnap", Config{Method: MethodEquiFD}, 0},
		{"fuzzy-workers4", Config{}, 4},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if v.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.procs))
			}
			dry := wal.NewMemFS()
			if got := durableScript(dry, v.cfg, batches); len(got) != len(batches) {
				t.Fatalf("dry run acked %d/%d batches", len(got), len(batches))
			}
			total := dry.BytesWritten()
			if total == 0 {
				t.Fatal("dry run wrote nothing")
			}
			for n := int64(0); n <= total; n++ {
				fs := wal.NewMemFS()
				fs.CrashAfterBytes(n)
				acked := durableScript(fs, v.cfg, batches)
				fs.Crash()

				s, err := OpenSession(v.cfg, "sess", fs)
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

// A clean close and reopen serves the identical result, in whichever order
// the batches arrived. The store holds the log only — wal-0.log, even for
// a session of over a hundred components — and the first delta after the
// reopen does exactly the work it does in a session that never restarted:
// the reopen's first Integrate closes every component from the recovered
// tables, so the delta extends a closure store instead of re-closing from
// base tuples.
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
			s, err := OpenSession(c.cfg, "sess", fs)
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
			names, err := fs.ReadDir("sess")
			if err != nil {
				t.Fatal(err)
			}
			if layout := []string{"wal-0.log"}; !slices.Equal(names, layout) {
				t.Errorf("store holds %v, want %v", names, layout)
			}

			s2, err := OpenSession(c.cfg, "sess", fs)
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

// legacySnapshotLayout copies the store directory an earlier version's
// snapshot writer left in internal/wal/testdata/snapshot-layout (a
// committed snapshot plus a two-frame log) into dir on fs, synced and
// committed.
func legacySnapshotLayout(t *testing.T, fs *wal.MemFS, dir string) {
	t.Helper()
	src := filepath.Join("..", "wal", "testdata", "snapshot-layout")
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		dst := filepath.Join(dir, rel)
		if d.IsDir() {
			if err := fs.MkdirAll(dst); err != nil {
				return err
			}
		} else if data, err := os.ReadFile(path); err != nil {
			return err
		} else if err := writeFileSync(fs, dst, data); err != nil {
			return err
		}
		return fs.SyncDir(filepath.Dir(dst))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// writeFileSync writes data to name on fs and syncs it; the caller commits
// the entry with SyncDir.
func writeFileSync(fs *wal.MemFS, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// A store this version cannot read must fail the open with an error
// naming what it cannot read — never silently drop state: a directory in
// the snapshot layout earlier versions wrote fails naming its CURRENT, and
// stays as it was rather than opening empty; a log frame with acknowledged
// frames after it fails naming the log.
func TestDurableSessionDetectsSnapshotCorruption(t *testing.T) {
	cfg := Config{Method: MethodEquiFD}
	t.Run("snapshot", func(t *testing.T) {
		fs := wal.NewMemFS()
		legacySnapshotLayout(t, fs, "sess")
		if _, err := OpenSession(cfg, "sess", fs); err == nil || !strings.Contains(err.Error(), "CURRENT") {
			t.Fatalf("open on the snapshot layout: err = %v, want one naming CURRENT", err)
		}
		if names, err := fs.ReadDir("sess"); err != nil || !slices.Equal(names, []string{"CURRENT", "snap-1", "wal-1.log"}) {
			t.Fatalf("the refused directory holds %v (%v), want CURRENT, snap-1 and wal-1.log", names, err)
		}
	})
	t.Run("interior-frame", func(t *testing.T) {
		fs := wal.NewMemFS()
		s, err := OpenSession(cfg, "sess", fs)
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
		if err := fs.FlipBit("sess/wal-0.log", 12, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSession(cfg, "sess", fs); err == nil || !strings.Contains(err.Error(), "wal-0.log") || !strings.Contains(err.Error(), "offset 0") {
			t.Fatalf("reopen on a corrupt first frame: err = %v, want one naming wal-0.log at offset 0", err)
		}
	})
}

// After Close the session rejects writes but keeps serving reads.
func TestDurableSessionClosedRejectsWrites(t *testing.T) {
	fs := wal.NewMemFS()
	s, err := OpenSession(Config{Method: MethodEquiFD}, "sess", fs)
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
