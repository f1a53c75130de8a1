package wal

import (
	"errors"
	"testing"

	"fuzzyfd/internal/table"
)

// A one-shot transient write fault is absorbed by the retry loop: the
// append succeeds, the caller never sees the fault, the failed attempt's
// bytes are cut back off the log, and a reopen recovers the batch.
func TestStoreAppendRetriesTransientFault(t *testing.T) {
	for _, mode := range []string{"write", "sync"} {
		t.Run(mode, func(t *testing.T) {
			fs := NewMemFS()
			w, _ := mustOpen(t, fs, "sess")
			b0 := batch(0)
			if err := w.AppendAdd(b0); err != nil {
				t.Fatal(err)
			}
			before, size := fs.BytesWritten(), mustSize(t, fs, "sess/"+logFile)
			if mode == "write" {
				fs.FailWrite(1, "wal-")
			} else {
				fs.FailSync(1, "wal-")
			}
			b1 := batch(1)
			if err := w.AppendAdd(b1); err != nil {
				t.Fatalf("append with transient %s fault: %v", mode, err)
			}
			// The failed attempt wrote bytes the log no longer holds.
			if written, grown := fs.BytesWritten()-before, mustSize(t, fs, "sess/"+logFile)-size; written <= grown {
				t.Errorf("wrote %d bytes for a %d-byte frame: the fault never fired", written, grown)
			}
			if w.Degraded() != nil {
				t.Errorf("store degraded after absorbed fault: %v", w.Degraded())
			}
			w.Close()

			w2, rec := mustOpen(t, fs, "sess")
			defer w2.Close()
			want := append(append([]*table.Table{}, b0...), b1...)
			if !tablesEqual(rec, want) {
				t.Fatalf("recovered %d tables, want %d", len(rec), len(want))
			}
		})
	}
}

// Exhausted retries degrade the store: writes fail fast with an
// ErrDegraded-matching error, each burning only the cheap probe it runs
// first, while nothing acknowledged is lost; once the disk heals the next
// append's probe restores write availability.
func TestStoreDegradesThenProbeHeals(t *testing.T) {
	flaky := NewFlakyFS(NewMemFS(), 0, 1)
	w, _, err := Open("sess", flaky)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	w.retryBase = 1
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
	if w.Degraded() == nil {
		t.Fatal("Degraded() = nil after a refused append")
	}

	flaky.SetRate(0)
	b2 := batch(2)
	if err := w.AppendAdd(b2); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if w.Degraded() != nil {
		t.Errorf("Degraded() = %v after an append landed", w.Degraded())
	}
	w.Close()

	w2, rec, err := Open("sess", flaky)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	want := append(append([]*table.Table{}, b0...), b2...)
	if !tablesEqual(rec, want) {
		t.Fatalf("recovered %d tables, want exactly the acknowledged %d", len(rec), len(want))
	}
}

// A degraded store heals through the append path itself: the next write
// probes first and lands once the disk works.
func TestStoreAppendSelfProbes(t *testing.T) {
	flaky := NewFlakyFS(NewMemFS(), 0, 2)
	w, _, err := Open("sess", flaky)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	w.retryN = 0
	defer w.Close()
	flaky.SetRate(1)
	if err := w.AppendAdd(batch(0)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append on dead disk: err = %v, want ErrDegraded", err)
	}
	flaky.SetRate(0)
	if err := w.AppendAdd(batch(1)); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if w.Degraded() != nil {
		t.Errorf("Degraded() = %v after self-probe", w.Degraded())
	}
}

// mustSize returns the size of the file name on fs.
func mustSize(t *testing.T, fs FS, name string) int64 {
	t.Helper()
	n, err := fs.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
