package fuzzyfd_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"fuzzyfd"
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

// WithDurability knobs pass through: NoSync sessions work, and a forced
// Flush compacts the log so the reopen replays nothing.
func TestOpenSessionWithDurability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	s, err := fuzzyfd.OpenSession(dir,
		fuzzyfd.WithEquiJoin(),
		fuzzyfd.WithDurability(fuzzyfd.Durability{SnapshotEvery: -1, NoSync: true}))
	if err != nil {
		t.Fatal(err)
	}
	tb := fuzzyfd.NewTable("t", "k", "v")
	tb.MustAppendRow(fuzzyfd.String("k1"), fuzzyfd.String("v1"))
	if err := s.Append(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Integrate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := fuzzyfd.OpenSession(dir, fuzzyfd.WithEquiJoin())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if n := s2.Tables(); n != 1 {
		t.Fatalf("reopened session has %d tables, want 1", n)
	}
}
