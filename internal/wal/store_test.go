package wal

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
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

// writeFileSync writes data to name on fs and syncs it; the caller commits
// the entry with SyncDir.
func writeFileSync(fs *MemFS, name string, data []byte) error {
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

// readAll reads a whole file through the FS.
func readAll(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

func mustOpen(t *testing.T, fs FS, dir string) (*Store, []*table.Table) {
	t.Helper()
	w, tables, err := Open(dir, fs)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return w, tables
}

func TestStoreAppendReopenRoundtrip(t *testing.T) {
	fs := NewMemFS()
	w, rec := mustOpen(t, fs, "sess")
	if len(rec) != 0 {
		t.Fatalf("fresh store recovered %d tables", len(rec))
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
	if !tablesEqual(rec2, want) {
		t.Fatalf("recovered tables differ:\ngot %v\nwant %v", rec2, want)
	}
	// The log is the store: a new directory holds nothing else.
	if names, err := fs.ReadDir("sess"); err != nil || !slices.Equal(names, []string{"wal-0.log"}) {
		t.Errorf("store directory holds %v (%v), want only wal-0.log", names, err)
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
		if !tablesEqual(rec, want) {
			t.Fatalf("cut %d: recovered %d tables, want %d", cut, len(rec), len(want))
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
	if !tablesEqual(rec, want) {
		t.Fatalf("recovered %d tables, want %d (corrupt tail dropped)", len(rec), len(want))
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
			w, _, err := Open("sess", fs)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			w.retryN = 0
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
			if !tablesEqual(rec, want) {
				t.Fatalf("recovered tables differ after %s fault:\ngot %v\nwant %v", mode, rec, want)
			}
		})
	}
}

// testdata/snapshot-layout was written by the snapshot writer of earlier
// versions: batches 0–2 in the committed snapshot snap-1, batches 3 and 4
// in the two frames of wal-1.log. snapshotLayout copies it into dir on fs,
// every byte synced and every entry committed.
func snapshotLayout(t testing.TB, fs *MemFS, dir string) {
	t.Helper()
	src := filepath.Join("testdata", "snapshot-layout")
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
			return fs.SyncDir(filepath.Dir(dst))
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := writeFileSync(fs, dst, data); err != nil {
			return err
		}
		return fs.SyncDir(filepath.Dir(dst))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tree returns every file under dir on fs by path, with its bytes, and
// every directory with nil.
func tree(t *testing.T, fs FS, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	names, err := fs.ReadDir(dir)
	if err != nil { // a file
		data, err := readAll(fs, dir)
		if err != nil {
			t.Fatal(err)
		}
		out[dir] = data
		return out
	}
	out[dir] = nil
	for _, n := range names {
		maps.Copy(out, tree(t, fs, filepath.Join(dir, n)))
	}
	return out
}

// A directory in a layout earlier versions wrote is refused, not read and
// not opened empty: Open and ReadMeta each fail naming the directory and
// its first entry other than wal-0.log, and leave every entry and byte as
// they were. The snapshot layout (CURRENT, snap-1/, wal-1.log) is refused by
// its CURRENT, or by snap-1 when CURRENT is gone; a session.json beside a
// whole log, an interrupted snapshot writer's tmp directory and a log at a
// later sequence are refused too. Writing into such a directory is refused
// the same way, and a new store beside it opens as usual.
func TestStoreRefusesLegacyLayouts(t *testing.T) {
	withLog := func(t *testing.T, fs *MemFS) {
		w, _ := mustOpen(t, fs, "sess")
		if err := w.AppendAdd(batch(0)); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	plant := func(t *testing.T, fs *MemFS, name string, data []byte) {
		withLog(t, fs)
		dir := filepath.Dir(name)
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := writeFileSync(fs, name, data); err != nil {
			t.Fatal(err)
		}
		if err := fs.SyncDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name, entry string
		layout      func(t *testing.T, fs *MemFS)
	}{
		{"snapshot-layout", "CURRENT", func(t *testing.T, fs *MemFS) { snapshotLayout(t, fs, "sess") }},
		{"snapshot-without-CURRENT", "snap-1", func(t *testing.T, fs *MemFS) {
			snapshotLayout(t, fs, "sess")
			if err := fs.Remove("sess/CURRENT"); err != nil {
				t.Fatal(err)
			}
		}},
		{"session.json", "session.json", func(t *testing.T, fs *MemFS) {
			plant(t, fs, "sess/session.json", []byte(`{"equi":true}`+"\n"))
		}},
		{"tmp", "snap-2.tmp", func(t *testing.T, fs *MemFS) {
			plant(t, fs, "sess/snap-2.tmp/manifest.json", []byte("{}"))
		}},
		{"later-log", "wal-1.log", func(t *testing.T, fs *MemFS) {
			plant(t, fs, "sess/wal-1.log", appendFrame(nil, []byte{recAdd, 0, 0}))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := NewMemFS()
			c.layout(t, fs)
			want := tree(t, fs, "sess")
			refused := func(op string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "sess") || !strings.Contains(err.Error(), c.entry) {
					t.Fatalf("%s: err = %v, want one naming sess and %s", op, err, c.entry)
				}
				if got := tree(t, fs, "sess"); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s changed the directory:\ngot  %q\nwant %q", op, got, want)
				}
			}
			_, _, err := Open("sess", fs)
			refused("Open", err)
			got, err := ReadMeta("sess", fs)
			refused("ReadMeta", err)
			if got != nil {
				t.Fatalf("ReadMeta returned %q beside its error", got)
			}
			refused("WriteMeta", WriteMeta("sess", fs, []byte("opts")))
			w, tables := mustOpen(t, fs, "other")
			w.Close()
			if len(tables) != 0 {
				t.Fatalf("a new store beside the refused one recovered %d tables", len(tables))
			}
		})
	}
}

// A bad frame with acknowledged frames after it is corruption, not a torn
// tail: for a flipped bit at every checksum and payload byte of every frame
// but the last, Open fails naming the log and the frame's offset, and the
// log's bytes stay as they were — nothing acknowledged is truncated away.
func TestStoreInteriorCorruptionFailsOpen(t *testing.T) {
	fs := NewMemFS()
	w, _ := mustOpen(t, fs, "sess")
	var ends []int // frame boundaries: ends[i] is where frame i ends
	for i := 0; i < 5; i++ {
		if err := w.AppendAdd(batch(i)); err != nil {
			t.Fatal(err)
		}
		size, _ := fs.Stat("sess/wal-0.log")
		ends = append(ends, int(size))
	}
	w.Close()
	full, _ := readAll(fs, "sess/wal-0.log")

	for f := 0; f < len(ends)-1; f++ {
		start := 0
		if f > 0 {
			start = ends[f-1]
		}
		for at := start + 4; at < ends[f]; at++ {
			if err := fs.FlipBit("sess/wal-0.log", at, uint(at)); err != nil {
				t.Fatal(err)
			}
			_, rec, err := Open("sess", fs)
			if err == nil {
				t.Fatalf("frame %d, byte %d flipped: open recovered %d of 5 tables without an error", f, at, len(rec))
			}
			if msg := err.Error(); !strings.Contains(msg, "wal-0.log") || !strings.Contains(msg, fmt.Sprintf("offset %d", start)) {
				t.Fatalf("frame %d, byte %d flipped: error names neither the log nor offset %d: %v", f, at, start, err)
			}
			if got, _ := readAll(fs, "sess/wal-0.log"); !slices.Equal(got, flipped(full, at)) {
				t.Fatalf("frame %d, byte %d flipped: the failed open changed the log (%d bytes, had %d)", f, at, len(got), len(full))
			}
			if err := fs.FlipBit("sess/wal-0.log", at, uint(at)); err != nil {
				t.Fatal(err)
			}
		}
	}
	w, rec := mustOpen(t, fs, "sess")
	defer w.Close()
	if len(rec) != 5 {
		t.Fatalf("the restored log recovered %d tables, want 5", len(rec))
	}
}

// A zero-filled tail — what a filesystem that extends a file before its
// data lands can leave after power loss — reads as an all-zero frame, whose
// empty payload passes its checksum. Zeros to the end of the file are a
// torn tail: the open recovers every batch before them and truncates the
// log back to those batches.
func TestStoreZeroTailTruncated(t *testing.T) {
	for _, zeros := range []int{8, 4096} {
		t.Run(fmt.Sprint(zeros), func(t *testing.T) {
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
			w.Close()
			goodSize, _ := fs.Stat("sess/wal-0.log")
			f, err := fs.OpenAppend("sess/wal-0.log")
			if err != nil {
				t.Fatal(err)
			}
			f.Write(make([]byte, zeros))
			f.Close()

			w, rec := mustOpen(t, fs, "sess")
			defer w.Close()
			if !tablesEqual(rec, want) {
				t.Fatalf("recovered %d tables, want %d", len(rec), len(want))
			}
			if size, _ := fs.Stat("sess/wal-0.log"); size != goodSize {
				t.Errorf("log not truncated to its batches: %d != %d", size, goodSize)
			}
		})
	}
}

// An all-zero frame with a good frame after it is corruption, not a tail:
// the open fails naming the log and the zero frame's offset, and leaves the
// log as it is.
func TestStoreZeroFrameBeforeGoodFrameFailsOpen(t *testing.T) {
	fs := NewMemFS()
	w, _ := mustOpen(t, fs, "sess")
	var ends []int
	for i := 0; i < 2; i++ {
		if err := w.AppendAdd(batch(i)); err != nil {
			t.Fatal(err)
		}
		size, _ := fs.Stat("sess/wal-0.log")
		ends = append(ends, int(size))
	}
	w.Close()
	full, _ := readAll(fs, "sess/wal-0.log")
	log := slices.Concat(full[:ends[0]], make([]byte, frameHeader), full[ends[0]:])
	f, err := fs.Create("sess/wal-0.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(log)
	f.Close()

	_, _, err = Open("sess", fs)
	if err == nil {
		t.Fatal("open succeeded on a log with a zero frame before a good frame")
	}
	if msg := err.Error(); !strings.Contains(msg, "wal-0.log") || !strings.Contains(msg, fmt.Sprintf("offset %d", ends[0])) {
		t.Fatalf("error names neither the log nor offset %d: %v", ends[0], err)
	}
	if got, _ := readAll(fs, "sess/wal-0.log"); !slices.Equal(got, log) {
		t.Fatalf("the failed open changed the log (%d bytes, had %d)", len(got), len(log))
	}
}

// A store opened in a directory that does not exist yet commits every
// directory level it creates: an acknowledged batch survives a crash that
// keeps only what was synced.
func TestStoreNewNestedDirSurvivesCrash(t *testing.T) {
	fs := NewMemFS()
	dir := "data/sessions/sess"
	w, _ := mustOpen(t, fs, dir)
	if err := w.AppendAdd(batch(0)); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	w, rec := mustOpen(t, fs, dir)
	defer w.Close()
	if !tablesEqual(rec, batch(0)) {
		t.Fatalf("recovered %d tables after the crash, want the acknowledged one", len(rec))
	}
}

// An Open whose directory sync fails leaves no directory behind, so the
// next Open creates and commits it again: its acknowledged batch survives a
// crash.
func TestStoreFailedDirSyncRetried(t *testing.T) {
	mem := NewMemFS()
	flaky := NewFlakyFS(mem, 1, 1)
	dir := "data/sess"
	if _, _, err := Open(dir, flaky); !errors.Is(err, ErrInjected) {
		t.Fatalf("open on a failing directory sync: err = %v", err)
	}
	flaky.SetRate(0)
	w, _ := mustOpen(t, flaky, dir)
	if err := w.AppendAdd(batch(0)); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	w, rec := mustOpen(t, mem, dir)
	defer w.Close()
	if !tablesEqual(rec, batch(0)) {
		t.Fatalf("recovered %d tables after the crash, want the acknowledged one", len(rec))
	}
}

// flipped returns a copy of data with the bit FlipBit(at, at) flips.
func flipped(data []byte, at int) []byte {
	out := slices.Clone(data)
	out[at] ^= 1 << (uint(at) % 8)
	return out
}

// Crash-at-byte-N property: for every byte budget N over a scripted run of
// appends on an empty directory, whose script starts by writing a meta
// frame, the post-crash reopen recovers exactly the batches whose
// AppendAdd was acknowledged before the crash. The meta frame survives byte
// for byte once WriteMeta returned; a crash inside it leaves a directory
// ReadMeta reports empty (the daemon answers 404) and WriteMeta can write
// again (a PUT re-creates the session).
func TestStoreCrashAtEveryByte(t *testing.T) {
	meta := []byte(`{"equi":true}`)
	t.Run("empty", func(t *testing.T) {
		script := func(fs *MemFS) (metaAcked bool, acked []*table.Table, _ error) {
			if err := WriteMeta("sess", fs, meta); err != nil {
				return false, nil, err
			}
			w, rec, err := Open("sess", fs)
			if err != nil {
				return true, nil, err
			}
			defer w.Close()
			acked = append(acked, rec...)
			for i := 0; i < 6; i++ {
				if err := w.AppendAdd(batch(10 + i)); err != nil {
					return true, acked, err
				}
				acked = append(acked, batch(10+i)...)
			}
			return true, acked, nil
		}
		// Dry run to learn the total byte volume.
		dry := NewMemFS()
		if _, _, err := script(dry); err != nil {
			t.Fatalf("dry run: %v", err)
		}
		total := dry.BytesWritten()
		if total == 0 {
			t.Fatal("dry run wrote nothing")
		}

		for n := int64(0); n <= total; n++ {
			fs := NewMemFS()
			fs.CrashAfterBytes(n)
			metaAcked, acked, serr := script(fs)
			fired := fs.Crash()
			if serr == nil && fired {
				t.Fatalf("budget %d: crash fired but script saw no error", n)
			}
			got, err := ReadMeta("sess", fs)
			if metaAcked {
				if err != nil || !slices.Equal(got, meta) {
					t.Fatalf("budget %d: recovered meta %q (%v), want %q", n, got, err, meta)
				}
			} else {
				if got != nil || err != nil {
					t.Fatalf("budget %d: crash inside the meta frame: ReadMeta = %q, %v; want nothing", n, got, err)
				}
				if err := WriteMeta("sess", fs, meta); err != nil {
					t.Fatalf("budget %d: rewrite the meta frame: %v", n, err)
				}
			}
			w, rec, err := Open("sess", fs)
			if err != nil {
				t.Fatalf("budget %d: reopen: %v", n, err)
			}
			if !tablesEqual(rec, acked) {
				t.Fatalf("budget %d: recovered %d tables, want %d acknowledged",
					n, len(rec), len(acked))
			}
			// The revived store must accept further appends.
			if err := w.AppendAdd(batch(99)); err != nil {
				t.Fatalf("budget %d: append after recovery: %v", n, err)
			}
			w.Close()
		}
	})
}

// A meta frame is frame 0 of wal-0.log and nothing else: Open skips it and
// recovers the adds after it, ReadMeta returns it as written, and a meta
// frame after the first fails the open as corruption, as WriteMeta
// refuses to write one. ReadMeta reports nothing for a missing or empty
// directory and ErrNoMeta for a log that starts with an add.
func TestStoreMetaFrame(t *testing.T) {
	fs := NewMemFS()
	if got, err := ReadMeta("sess", fs); got != nil || err != nil {
		t.Fatalf("missing directory: ReadMeta = %q, %v", got, err)
	}
	if err := WriteMeta("sess", fs, []byte("opts")); err != nil {
		t.Fatal(err)
	}
	w, rec := mustOpen(t, fs, "sess")
	if len(rec) != 0 {
		t.Fatalf("a meta-only log recovered %d tables", len(rec))
	}
	for i := 0; i < 2; i++ {
		if err := w.AppendAdd(batch(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	w, rec = mustOpen(t, fs, "sess")
	w.Close()
	if want := append(batch(0), batch(1)...); !tablesEqual(rec, want) {
		t.Fatalf("recovered %v, want %v", rec, want)
	}
	if got, err := ReadMeta("sess", fs); err != nil || string(got) != "opts" {
		t.Fatalf("ReadMeta = %q, %v; want opts", got, err)
	}
	if names, err := fs.ReadDir("sess"); err != nil || !slices.Equal(names, []string{"wal-0.log"}) {
		t.Errorf("store directory holds %v (%v), want only wal-0.log", names, err)
	}

	adds := NewMemFS()
	w, _ = mustOpen(t, adds, "sess")
	if err := w.AppendAdd(batch(0)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if got, err := ReadMeta("sess", adds); got != nil || !errors.Is(err, ErrNoMeta) {
		t.Fatalf("a log of adds: ReadMeta = %q, %v; want ErrNoMeta", got, err)
	}
	log, _ := readAll(adds, "sess/wal-0.log")
	if err := WriteMeta("sess", adds, []byte("opts")); err == nil {
		t.Fatal("WriteMeta appended a meta frame after an add")
	}
	if got, _ := readAll(adds, "sess/wal-0.log"); !slices.Equal(got, log) {
		t.Fatal("the refused WriteMeta changed the log")
	}
	log = appendFrame(log, []byte{recMeta, 'x'})
	if err := writeFileSync(adds, "sess/wal-0.log", log); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open("sess", adds); err == nil || !strings.Contains(err.Error(), "meta record") {
		t.Fatalf("a meta frame after an add: open err = %v, want corruption", err)
	}

	empty := NewMemFS()
	if err := empty.MkdirAll("sess"); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadMeta("sess", empty); got != nil || err != nil {
		t.Fatalf("empty directory: ReadMeta = %q, %v", got, err)
	}
}
