package wal

import (
	"errors"
	"testing"

	"fuzzyfd/internal/table"
)

// A one-shot transient write fault is absorbed by the retry loop: the
// append succeeds, the caller never sees the fault, and a reopen recovers
// the batch.
func TestStoreAppendRetriesTransientFault(t *testing.T) {
	for _, mode := range []string{"write", "sync"} {
		t.Run(mode, func(t *testing.T) {
			fs := NewMemFS()
			w, _ := mustOpen(t, fs, "sess")
			b0 := batch(0)
			if err := w.AppendAdd(b0); err != nil {
				t.Fatal(err)
			}
			if mode == "write" {
				fs.FailWrite(1, "wal-")
			} else {
				fs.FailSync(1, "wal-")
			}
			b1 := batch(1)
			if err := w.AppendAdd(b1); err != nil {
				t.Fatalf("append with transient %s fault: %v", mode, err)
			}
			if w.Retried() == 0 {
				t.Error("Retried() = 0, want at least one absorbed fault")
			}
			if w.Degraded() != nil {
				t.Errorf("store degraded after absorbed fault: %v", w.Degraded())
			}
			w.Close()

			w2, rec := mustOpen(t, fs, "sess")
			defer w2.Close()
			want := append(append([]*table.Table{}, b0...), b1...)
			if !tablesEqual(rec.Tables, want) {
				t.Fatalf("recovered %d tables, want %d", len(rec.Tables), len(want))
			}
		})
	}
}

// Exhausted retries degrade the store: writes fail fast with an
// ErrDegraded-matching error while nothing acknowledged is lost, a probe
// against the still-broken disk reports failure, and once the disk heals a
// probe (or the next append's self-probe) restores write availability.
func TestStoreDegradesThenProbeHeals(t *testing.T) {
	flaky := NewFlakyFS(NewMemFS(), 0, 1)
	w, _, err := Open("sess", Options{FS: flaky, RetryBackoff: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	b0 := batch(0)
	if err := w.AppendAdd(b0); err != nil {
		t.Fatal(err)
	}

	flaky.SetRate(1)
	if err := w.AppendAdd(batch(1)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append on dead disk: err = %v, want ErrDegraded", err)
	}
	if w.Degraded() == nil {
		t.Fatal("Degraded() = nil after exhausted retries")
	}
	// Fail fast now: no more faults should be burned per rejected write.
	before := flaky.Injected()
	if err := w.AppendAdd(batch(1)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append while degraded: err = %v, want ErrDegraded", err)
	}
	// The degraded-entry probe costs at most a couple of operations.
	if burned := flaky.Injected() - before; burned > 3 {
		t.Errorf("degraded append burned %d faults, want a cheap probe", burned)
	}
	if err := w.Probe(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("probe on dead disk: err = %v, want ErrDegraded", err)
	}

	flaky.SetRate(0)
	if err := w.Probe(); err != nil {
		t.Fatalf("probe on healed disk: %v", err)
	}
	if w.Degraded() != nil {
		t.Errorf("Degraded() = %v after successful probe", w.Degraded())
	}
	b2 := batch(2)
	if err := w.AppendAdd(b2); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	w.Close()

	w2, rec, err := Open("sess", Options{FS: flaky})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	want := append(append([]*table.Table{}, b0...), b2...)
	if !tablesEqual(rec.Tables, want) {
		t.Fatalf("recovered %d tables, want exactly the acknowledged %d", len(rec.Tables), len(want))
	}
}

// A degraded store heals through the append path itself: the next write
// probes first, so no explicit Probe call is required once the disk works.
func TestStoreAppendSelfProbes(t *testing.T) {
	flaky := NewFlakyFS(NewMemFS(), 0, 2)
	w, _, err := Open("sess", Options{FS: flaky, RetryAttempts: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer w.Close()
	flaky.SetRate(1)
	if err := w.AppendAdd(batch(0)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append on dead disk: err = %v, want ErrDegraded", err)
	}
	flaky.SetRate(0)
	if err := w.AppendAdd(batch(1)); err != nil {
		t.Fatalf("append after heal without explicit probe: %v", err)
	}
	if w.Degraded() != nil {
		t.Errorf("Degraded() = %v after self-probe", w.Degraded())
	}
}

// A one-shot transient fault inside the snapshot machinery is retried to
// success; the rotation completes and recovery reads the new generation.
func TestStoreSnapshotRetriesTransientFault(t *testing.T) {
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
	fs.FailWrite(1, "snap-")
	if err := w.Snapshot(want); err != nil {
		t.Fatalf("snapshot with transient fault: %v", err)
	}
	if w.Retried() == 0 {
		t.Error("Retried() = 0, want at least one absorbed fault")
	}
	if w.FramesSinceSnapshot() != 0 {
		t.Errorf("FramesSinceSnapshot = %d after snapshot", w.FramesSinceSnapshot())
	}
	w.Close()
	w2, rec := mustOpen(t, fs, "sess")
	defer w2.Close()
	if !tablesEqual(rec.Tables, want) {
		t.Fatalf("recovered %d tables, want %d", len(rec.Tables), len(want))
	}
}

// A snapshot whose retries exhaust is an error but not a degradation: the
// log remains authoritative, appends keep flowing, and recovery still sees
// every acknowledged batch.
func TestStoreSnapshotFailureKeepsLogAuthoritative(t *testing.T) {
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
	fs.FailWrite(1, "snap-")
	if err := w.Snapshot(want); err == nil {
		t.Fatal("snapshot with no-retry fault: err = nil, want failure")
	}
	if w.Degraded() != nil {
		t.Fatalf("snapshot failure degraded the store: %v", w.Degraded())
	}
	b1 := batch(1)
	if err := w.AppendAdd(b1); err != nil {
		t.Fatalf("append after failed snapshot: %v", err)
	}
	want = append(want, b1...)
	// The retried snapshot succeeds and rotates.
	if err := w.Snapshot(want); err != nil {
		t.Fatalf("snapshot retry: %v", err)
	}
	w.Close()
	w2, rec := mustOpen(t, fs, "sess")
	defer w2.Close()
	if !tablesEqual(rec.Tables, want) {
		t.Fatalf("recovered %d tables, want %d", len(rec.Tables), len(want))
	}
}
