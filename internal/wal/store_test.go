package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fuzzyfd/internal/table"
)

// batch returns a small distinct table batch for sequence number i.
func batch(i int) []*table.Table {
	t := table.New(fmt.Sprintf("t%d", i), "k", "v")
	t.MustAppendRow(table.S(fmt.Sprintf("k%d", i)), table.S(fmt.Sprintf("v%d", i%3)))
	if i%2 == 0 {
		t.MustAppendRow(table.S(fmt.Sprintf("k%d", i)), table.Null())
	}
	return []*table.Table{t}
}

// tablesEqual requires byte-identical names, columns, and rows in order.
func tablesEqual(a, b []*table.Table) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func mustOpen(t *testing.T, fs FS, dir string) (*Store, *Recovered) {
	t.Helper()
	w, rec, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return w, rec
}

func TestStoreAppendReopenRoundtrip(t *testing.T) {
	fs := NewMemFS()
	w, rec := mustOpen(t, fs, "sess")
	if len(rec.Tables) != 0 {
		t.Fatalf("fresh store recovered %d tables", len(rec.Tables))
	}
	var want []*table.Table
	for i := 0; i < 5; i++ {
		b := batch(i)
		if err := w.AppendAdd(b); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, b...)
	}
	w.Close()

	w2, rec2 := mustOpen(t, fs, "sess")
	defer w2.Close()
	if !tablesEqual(rec2.Tables, want) {
		t.Fatalf("recovered tables differ:\ngot %v\nwant %v", rec2.Tables, want)
	}
	if w2.FramesSinceSnapshot() != 5 {
		t.Errorf("FramesSinceSnapshot = %d, want 5", w2.FramesSinceSnapshot())
	}
}

// A torn tail — any strict prefix of the final frame — is truncated on
// open, preserving every earlier frame.
func TestStoreTornTailTruncated(t *testing.T) {
	fs := NewMemFS()
	w, _ := mustOpen(t, fs, "sess")
	var want []*table.Table
	for i := 0; i < 3; i++ {
		b := batch(i)
		if err := w.AppendAdd(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	goodSize, err := fs.Stat("sess/wal-0.log")
	if err != nil {
		t.Fatal(err)
	}
	// One more append, then tear it at every possible length.
	if err := w.AppendAdd(batch(3)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	fullSize, _ := fs.Stat("sess/wal-0.log")
	full, _ := readAll(fs, "sess/wal-0.log")

	for cut := goodSize; cut < fullSize; cut++ {
		if err := fs.Truncate("sess/wal-0.log", cut); err != nil {
			t.Fatal(err)
		}
		w2, rec := mustOpen(t, fs, "sess")
		if !tablesEqual(rec.Tables, want) {
			t.Fatalf("cut %d: recovered %d tables, want %d", cut, len(rec.Tables), len(want))
		}
		if size, _ := fs.Stat("sess/wal-0.log"); size != goodSize {
			t.Fatalf("cut %d: log not truncated to last good frame: %d != %d", cut, size, goodSize)
		}
		w2.Close()
		// Restore the full log for the next cut.
		f, _ := fs.Create("sess/wal-0.log")
		f.Write(full)
		f.Close()
	}
}

// A flipped bit anywhere in the final frame fails its checksum and the
// frame is dropped as a torn tail; earlier frames survive.
func TestStoreChecksumMismatchDropsTail(t *testing.T) {
	fs := NewMemFS()
	w, _ := mustOpen(t, fs, "sess")
	var want []*table.Table
	for i := 0; i < 2; i++ {
		b := batch(i)
		if err := w.AppendAdd(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	goodSize, _ := fs.Stat("sess/wal-0.log")
	if err := w.AppendAdd(batch(2)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Flip a payload bit of the last frame (past its 8-byte header).
	if err := fs.FlipBit("sess/wal-0.log", int(goodSize)+frameHeader+2, 3); err != nil {
		t.Fatal(err)
	}
	w2, rec := mustOpen(t, fs, "sess")
	defer w2.Close()
	if !tablesEqual(rec.Tables, want) {
		t.Fatalf("recovered %d tables, want %d (corrupt tail dropped)", len(rec.Tables), len(want))
	}
	if size, _ := fs.Stat("sess/wal-0.log"); size != goodSize {
		t.Errorf("log not truncated past corruption: %d != %d", size, goodSize)
	}
}

// With retries disabled, an injected write or sync failure surfaces to the
// caller, the partial frame is repaired away, and the store keeps accepting
// appends; a reopen sees exactly the acknowledged batches.
func TestStoreFailedAppendRepairs(t *testing.T) {
	for _, mode := range []string{"write", "sync"} {
		t.Run(mode, func(t *testing.T) {
			fs := NewMemFS()
			w, _, err := Open("sess", Options{FS: fs, RetryAttempts: -1})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			var want []*table.Table
			b0 := batch(0)
			if err := w.AppendAdd(b0); err != nil {
				t.Fatal(err)
			}
			want = append(want, b0...)

			if mode == "write" {
				fs.FailWrite(1, "wal-")
			} else {
				fs.FailSync(1, "wal-")
			}
			if err := w.AppendAdd(batch(1)); !errors.Is(err, ErrInjected) {
				t.Fatalf("injected %s fault: err = %v", mode, err)
			}
			// The store must have repaired the log and still accept appends.
			b2 := batch(2)
			if err := w.AppendAdd(b2); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			want = append(want, b2...)
			w.Close()

			w2, rec := mustOpen(t, fs, "sess")
			defer w2.Close()
			if !tablesEqual(rec.Tables, want) {
				t.Fatalf("recovered tables differ after %s fault:\ngot %v\nwant %v", mode, rec.Tables, want)
			}
		})
	}
}

func TestStoreSnapshotRotation(t *testing.T) {
	fs := NewMemFS()
	w, _ := mustOpen(t, fs, "sess")
	var want []*table.Table
	for i := 0; i < 4; i++ {
		b := batch(i)
		if err := w.AppendAdd(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	if err := w.Snapshot(want); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if w.FramesSinceSnapshot() != 0 {
		t.Errorf("FramesSinceSnapshot = %d after snapshot", w.FramesSinceSnapshot())
	}
	// The superseded generation is gone.
	if exists(fs, "sess/wal-0.log") {
		t.Error("old log survived rotation")
	}
	// Appends continue on the new log.
	b := batch(4)
	if err := w.AppendAdd(b); err != nil {
		t.Fatal(err)
	}
	want = append(want, b...)
	if err := w.Snapshot(want); err != nil {
		t.Fatalf("second snapshot: %v", err)
	}
	if exists(fs, "sess/snap-1") {
		t.Error("old snapshot survived rotation")
	}
	b = batch(5)
	if err := w.AppendAdd(b); err != nil {
		t.Fatal(err)
	}
	want = append(want, b...)
	w.Close()

	w2, rec := mustOpen(t, fs, "sess")
	defer w2.Close()
	if !tablesEqual(rec.Tables, want) {
		t.Fatalf("recovered tables differ:\ngot %v\nwant %v", rec.Tables, want)
	}
	if w2.FramesSinceSnapshot() != 1 {
		t.Errorf("FramesSinceSnapshot = %d, want 1 (one post-snapshot frame)", w2.FramesSinceSnapshot())
	}
}

// testdata/component-segment-layout was written when a snapshot also held
// one comp-N.seg per Full Disjunction component: three such segments beside
// the tables of the first batch, and the second batch in the log tail. It
// opens with its tables intact, and its next snapshot holds only the
// dictionary, the tables and the manifest.
func TestStoreOpensComponentSegmentLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "component-segment-layout"))); err != nil {
		t.Fatal(err)
	}
	people := table.New("people", "name", "city")
	people.MustAppendRow(table.S("alice"), table.S("Berlin"))
	people.MustAppendRow(table.S("bob"), table.S("Paris"))
	jobs := table.New("jobs", "name", "job")
	jobs.MustAppendRow(table.S("alice"), table.S("eng"))
	jobs.MustAppendRow(table.S("carol"), table.Null())
	ages := table.New("ages", "name", "age")
	ages.MustAppendRow(table.S("bob"), table.S("41"))
	want := []*table.Table{people, jobs, ages}

	w, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer w.Close()
	if !tablesEqual(rec.Tables, want) {
		t.Fatalf("recovered tables differ:\ngot %v\nwant %v", rec.Tables, want)
	}
	if err := w.Snapshot(rec.Tables); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	names, err := OSFS{}.ReadDir(filepath.Join(dir, snapDirName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"dict.seg", "manifest.json", "tables.seg"}; !slices.Equal(names, want) {
		t.Errorf("next snapshot holds %v, want %v", names, want)
	}
	if exists(OSFS{}, filepath.Join(dir, snapDirName(1))) {
		t.Error("the snapshot with component segments survived rotation")
	}
}

// Without CURRENT the store adopts the highest snapshot that loads cleanly.
func TestStoreCurrentLostScanFallback(t *testing.T) {
	fs := NewMemFS()
	w, _ := mustOpen(t, fs, "sess")
	want := batch(0)
	if err := w.AppendAdd(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(want); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := fs.Remove("sess/CURRENT"); err != nil {
		t.Fatal(err)
	}

	w2, rec := mustOpen(t, fs, "sess")
	defer w2.Close()
	if !tablesEqual(rec.Tables, want) {
		t.Fatalf("scan fallback recovered %v, want %v", rec.Tables, want)
	}
}

// A committed snapshot that fails its checksum is a hard open error naming
// the bad file — acknowledged data must never silently vanish.
func TestStoreCommittedSnapshotCorruptFailsOpen(t *testing.T) {
	fs := NewMemFS()
	w, _ := mustOpen(t, fs, "sess")
	want := batch(0)
	if err := w.AppendAdd(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(want); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := fs.FlipBit("sess/snap-1/tables.seg", frameHeader+1, 0); err != nil {
		t.Fatal(err)
	}

	_, _, err := Open("sess", Options{FS: fs})
	if err == nil {
		t.Fatal("open succeeded on a corrupt committed snapshot")
	}
	if !strings.Contains(err.Error(), "snap-1") {
		t.Errorf("error does not name the bad snapshot: %v", err)
	}
}

// Crash-at-byte-N property: for every byte budget N over a scripted run of
// appends and a snapshot, the post-crash reopen recovers exactly the
// batches whose AppendAdd was acknowledged before the crash.
func TestStoreCrashAtEveryByte(t *testing.T) {
	// Dry run to learn the total byte volume.
	script := func(fs *MemFS) (acked []*table.Table, _ error) {
		w, rec, err := Open("sess", Options{FS: fs})
		if err != nil {
			return nil, err
		}
		defer w.Close()
		acked = append(acked, rec.Tables...)
		for i := 0; i < 6; i++ {
			if err := w.AppendAdd(batch(i)); err != nil {
				return acked, err
			}
			acked = append(acked, batch(i)...)
			if i == 3 {
				if err := w.Snapshot(acked); err != nil {
					return acked, err
				}
			}
		}
		return acked, nil
	}
	dry := NewMemFS()
	if _, err := script(dry); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	total := dry.BytesWritten()
	if total == 0 {
		t.Fatal("dry run wrote nothing")
	}

	for n := int64(0); n <= total; n++ {
		fs := NewMemFS()
		fs.CrashAfterBytes(n)
		acked, serr := script(fs)
		fired := fs.Crash()
		if serr == nil && fired {
			t.Fatalf("budget %d: crash fired but script saw no error", n)
		}
		w, rec, err := Open("sess", Options{FS: fs})
		if err != nil {
			t.Fatalf("budget %d: reopen: %v", n, err)
		}
		if !tablesEqual(rec.Tables, acked) {
			t.Fatalf("budget %d: recovered %d tables, want %d acknowledged",
				n, len(rec.Tables), len(acked))
		}
		// The revived store must accept further appends.
		if err := w.AppendAdd(batch(99)); err != nil {
			t.Fatalf("budget %d: append after recovery: %v", n, err)
		}
		w.Close()
	}
}
