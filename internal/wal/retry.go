package wal

import (
	"errors"
	"math/rand/v2"
	"os"
	"time"
)

// ErrDegraded marks a store whose log could not be written even after
// retries. Each later append first tries to re-arm the log and is refused
// with this error while that fails; the already-acknowledged state stays
// fully readable. Matched with errors.Is through any wrapping.
var ErrDegraded = errors.New("wal: store degraded, writes unavailable")

// degradedError wraps the fault that degraded the store so callers can
// match ErrDegraded while still unwrapping to the root cause.
type degradedError struct{ cause error }

func (e *degradedError) Error() string        { return "wal: store degraded: " + e.cause.Error() }
func (e *degradedError) Unwrap() error        { return e.cause }
func (e *degradedError) Is(target error) bool { return target == ErrDegraded }

// IsTransient classifies an FS failure for the retry loops: permission
// denial, a missing path, an invalid or closed handle, and the test
// filesystem's simulated machine death are permanent — retrying them only
// repeats the answer — while everything else (EIO, ENOSPC-ish conditions,
// injected faults) is worth a bounded retry because real disks and network
// filesystems produce them transiently.
func IsTransient(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, os.ErrPermission),
		errors.Is(err, os.ErrNotExist),
		errors.Is(err, os.ErrInvalid),
		errors.Is(err, os.ErrClosed),
		errors.Is(err, ErrCrashed):
		return false
	}
	return true
}

const (
	// retryAttempts is how many times a transient fault is retried before
	// the store degrades (the first try plus this many retries).
	retryAttempts = 4
	// retryBase is the first backoff step; each retry doubles it.
	retryBase = 2 * time.Millisecond
	// maxBackoff caps the exponential growth so a long retry ladder
	// never turns into multi-second stalls under the session lock.
	maxBackoff = 250 * time.Millisecond
)

// sleepBackoff sleeps the attempt-th step of a bounded exponential backoff
// with jitter: base<<attempt capped at maxBackoff, plus up to half of
// itself so colliding retriers decorrelate.
func sleepBackoff(base time.Duration, attempt int) {
	d := base << uint(min(attempt, 16))
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	d += rand.N(d/2 + 1)
	time.Sleep(d)
}
