package fuzzyfd_test

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"fuzzyfd"
	"fuzzyfd/internal/wal"
)

// End-to-end durability on a real filesystem: a session opened on disk,
// closed, and reopened serves the identical integration result and keeps
// accepting new tables.
func TestOpenSessionReopenOnDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")

	t1 := fuzzyfd.NewTable("people", "name", "city")
	t1.MustAppendRow(fuzzyfd.String("alice"), fuzzyfd.String("Berlin"))
	t1.MustAppendRow(fuzzyfd.String("bob"), fuzzyfd.String("Paris"))
	t2 := fuzzyfd.NewTable("jobs", "name", "job")
	t2.MustAppendRow(fuzzyfd.String("Alice"), fuzzyfd.String("eng")) // fuzzy-matches alice
	t2.MustAppendRow(fuzzyfd.String("carol"), fuzzyfd.String("ops"))
	t3 := fuzzyfd.NewTable("ages", "name", "age")
	t3.MustAppendRow(fuzzyfd.String("bob"), fuzzyfd.String("41"))

	s, err := fuzzyfd.OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Durable() {
		t.Fatal("OpenSession returned a non-durable session")
	}
	if err := s.Append(t1, t2); err != nil {
		t.Fatal(err)
	}
	want, err := s.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, err := fuzzyfd.OpenSession(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if n := s2.Tables(); n != 2 {
		t.Fatalf("reopened session has %d tables, want 2", n)
	}
	got, err := s2.Integrate()
	if err != nil {
		t.Fatalf("integrate after reopen: %v", err)
	}
	if !got.Table.Equal(want.Table) || !reflect.DeepEqual(got.Prov, want.Prov) {
		t.Fatalf("reopened result diverges:\ngot\n%v %v\nwant\n%v %v",
			got.Table, got.Prov, want.Table, want.Prov)
	}

	// The reopened session keeps integrating new tables incrementally.
	if err := s2.Append(t3); err != nil {
		t.Fatal(err)
	}
	res, err := s2.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fuzzyfd.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	oracle.Add(t1, t2, t3)
	wantAll, err := oracle.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Table.Equal(wantAll.Table) || !reflect.DeepEqual(res.Prov, wantAll.Prov) {
		t.Fatalf("post-reopen integration diverges:\ngot\n%v %v\nwant\n%v %v",
			res.Table, res.Prov, wantAll.Table, wantAll.Prov)
	}
}

// WithDurability puts the session on the filesystem passed in, and every
// acknowledged append is synced there: an append with no Close survives a
// crash of that filesystem. The log is all the session writes, and the
// reopen after a Close still sees the table.
func TestOpenSessionWithDurability(t *testing.T) {
	fs := wal.NewMemFS()
	open := func() *fuzzyfd.Session {
		t.Helper()
		s, err := fuzzyfd.OpenSession("sess",
			fuzzyfd.WithEquiJoin(),
			fuzzyfd.WithDurability(fuzzyfd.Durability{FS: fs}))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return s
	}
	s := open()
	tb := fuzzyfd.NewTable("t", "k", "v")
	tb.MustAppendRow(fuzzyfd.String("k1"), fuzzyfd.String("v1"))
	if err := s.Append(tb); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	s = open()
	if n := s.Tables(); n != 1 {
		t.Fatalf("session reopened after a crash has %d tables, want the acknowledged 1", n)
	}
	if _, err := s.Integrate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if names, err := fs.ReadDir("sess"); err != nil || !slices.Equal(names, []string{"wal-0.log"}) {
		t.Fatalf("the session's filesystem holds %v (%v), want only wal-0.log", names, err)
	}

	s2 := open()
	defer s2.Close()
	if n := s2.Tables(); n != 1 {
		t.Fatalf("reopened session has %d tables, want 1", n)
	}
}
