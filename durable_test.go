package fuzzyfd_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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

// A durable session whose filesystem fails outright degrades to read-only:
// Append fails with ErrDegraded, Degraded reports it, and Last and
// StreamContext keep serving the acknowledged state. The first Append
// after the filesystem heals lands and clears the mark. The result, and a
// reopen's from the same filesystem, is byte-identical to an in-memory
// session fed the acknowledged batches.
func TestOpenSessionDegradedThenHeals(t *testing.T) {
	mem := wal.NewMemFS()
	flaky := wal.NewFlakyFS(mem, 0, 3)
	open := func(fs wal.FS) *fuzzyfd.Session {
		t.Helper()
		s, err := fuzzyfd.OpenSession("sess", fuzzyfd.WithDurability(fuzzyfd.Durability{FS: fs}))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return s
	}
	people := fuzzyfd.NewTable("people", "name", "city")
	people.MustAppendRow(fuzzyfd.String("alice"), fuzzyfd.String("Berlin"))
	people.MustAppendRow(fuzzyfd.String("bob"), fuzzyfd.String("Paris"))
	jobs := fuzzyfd.NewTable("jobs", "name", "job")
	jobs.MustAppendRow(fuzzyfd.String("Alice"), fuzzyfd.String("eng"))
	ages := fuzzyfd.NewTable("ages", "name", "age")
	ages.MustAppendRow(fuzzyfd.String("bob"), fuzzyfd.String("41"))
	encode := func(res *fuzzyfd.Result) string {
		t.Helper()
		var b strings.Builder
		if err := fuzzyfd.WriteJSONL(&b, res.Table); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s%v", b.String(), res.Prov)
	}

	s := open(flaky)
	if err := s.Append(people); err != nil {
		t.Fatal(err)
	}
	before, err := s.Integrate()
	if err != nil {
		t.Fatal(err)
	}

	flaky.SetRate(1)
	if err := s.Append(jobs); !errors.Is(err, fuzzyfd.ErrDegraded) {
		t.Fatalf("append on a dead filesystem: err = %v, want ErrDegraded", err)
	}
	if err := s.Degraded(); !errors.Is(err, fuzzyfd.ErrDegraded) {
		t.Fatalf("Degraded() = %v after a refused append, want ErrDegraded", err)
	}
	if s.Last() != before {
		t.Error("Last changed while degraded")
	}
	var rows int
	streamed, err := s.StreamContext(t.Context(), func(fuzzyfd.Schema, fuzzyfd.Row, []fuzzyfd.TID) error {
		rows++
		return nil
	})
	if err != nil {
		t.Fatalf("stream while degraded: %v", err)
	}
	if encode(streamed) != encode(before) || rows != before.Table.NumRows() {
		t.Errorf("stream while degraded served %d rows of another result", rows)
	}

	flaky.SetRate(0)
	if err := s.Append(ages); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if err := s.Degraded(); err != nil {
		t.Fatalf("Degraded() = %v after an append landed", err)
	}
	got, err := s.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fuzzyfd.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Append(people, ages); err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	if encode(got) != encode(want) {
		t.Fatalf("healed session diverges from the acknowledged batches:\ngot  %s\nwant %s", encode(got), encode(want))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(mem)
	defer s2.Close()
	reopened, err := s2.Integrate()
	if err != nil {
		t.Fatalf("integrate after reopen: %v", err)
	}
	if encode(reopened) != encode(want) {
		t.Fatalf("reopen diverges from the acknowledged batches:\ngot  %s\nwant %s", encode(reopened), encode(want))
	}
}
