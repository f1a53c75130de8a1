package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// On-disk layout of a store directory:
//
//	wal-0.log      → every acknowledged Add frame, in order
//
// The log is the store, and a store directory holds nothing else. Frame 0
// may be a meta frame, the caller's opaque metadata (the daemon's session
// options), which WriteMeta writes into an empty log and ReadMeta reads
// back; Open skips it, and a meta frame anywhere else is corruption. Open
// and ReadMeta refuse a directory holding any other entry (checkLayout),
// and leave it as it is.
//
// Recovery replays wal-0.log. A bad frame that runs to the end of the file
// is the residue of an interrupted append and is truncated, never an open
// failure; so is an all-zero frame with only zeros after it, the tail a
// filesystem that extends a file before its data lands leaves. A bad frame
// with bytes after it is corruption of acknowledged frames: the open fails
// naming the log and the frame's offset, and the log is left as it is. One
// case cannot be told apart from a torn tail: a flipped length field that
// claims more bytes than the file holds. Its frame and every later one are
// truncated.

// logFile is the name of the log in its store directory.
const logFile = "wal-0.log"

// Store is the durable backing of one session: an fsync-per-Add record log.
// It has no lock of its own: the owning core.Session makes every call under
// its mutex s.mu (the read-only Degraded under the read lock), which also
// keeps log order equal to memory order.
type Store struct {
	fs  FS
	dir string

	// The store keeps its own dictionary so log frames can carry cells as
	// dense symbols: each frame declares the values newly seen since the
	// last durable frame, then references all cells by symbol.
	dict *intern.Dict
	// durableVals is the dictionary watermark covered by durable frames. A
	// failed append leaves values interned above the watermark; the next
	// successful frame re-declares them, keeping replay's symbol assignment
	// identical to ours.
	durableVals int

	logName   string // the log's path: dir/wal-0.log
	log       File   // nil until the first append after open
	committed int64  // log offset up to which frames are acknowledged

	// degraded, when non-nil, records the fault that exhausted the write
	// retries. The log's tail may then hold a partial frame, so the next
	// append first runs probe, which cuts the tail back, verifies the log
	// syncs and clears the mark, and is refused (read state untouched)
	// while that fails.
	degraded error

	retryN    int           // transient-fault retries before degrading (retryAttempts)
	retryBase time.Duration // first backoff step between retries (retryBase)

	buf []byte // payload scratch, reused across appends
}

// Open opens (or creates) a store directory and returns the tables of every
// acknowledged batch in its log, in Add order, with a torn tail truncated
// rather than rejected and a corrupt interior frame reported. A nil fsys
// means the operating system's filesystem.
func Open(dir string, fsys FS) (*Store, []*table.Table, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := checkLayout(fsys, dir); err != nil {
		return nil, nil, err
	}
	if err := mkdirSynced(fsys, dir); err != nil {
		return nil, nil, err
	}
	w := &Store{
		fs: fsys, dir: dir, logName: filepath.Join(dir, logFile), dict: intern.NewDict(),
		retryN: retryAttempts, retryBase: retryBase,
	}
	tables, err := w.replayLog()
	if err != nil {
		return nil, nil, err
	}
	w.durableVals = w.dict.Len()
	return w, tables, nil
}

// checkLayout refuses a directory holding anything but wal-0.log, naming
// the directory and its first other entry, and writes nothing. Earlier
// versions left such entries — a snapshot's CURRENT, snap-S/ and wal-S.log,
// a session.json beside the log — and no version since reads them; a
// directory that does not exist yet passes.
func checkLayout(fsys FS, dir string) error {
	names, err := fsys.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return pathErr("readdir", dir, err)
	}
	for _, n := range names {
		if n != logFile {
			return pathErr("open", dir, fmt.Errorf("unexpected entry %s (a store directory holds only %s; earlier versions' layouts are not read)", n, logFile))
		}
	}
	return nil
}

// ErrNoMeta reports a log whose first frame is an add, not a meta frame:
// one no WriteMeta started, as core.OpenSession writes.
var ErrNoMeta = errors.New("wal: log has no meta record")

// WriteMeta starts the store in dir with meta as frame 0 of wal-0.log,
// through the append path: the frame fsynced, and the log's directory entry
// and every directory level Open creates committed. It refuses a store that
// already holds a frame; the torn first frame a crash inside an earlier
// WriteMeta left is truncated by Open, as any torn tail is.
func WriteMeta(dir string, fsys FS, meta []byte) error {
	w, _, err := Open(dir, fsys)
	if err != nil {
		return err
	}
	if w.committed != 0 {
		err = pathErr("write meta", w.logName, errors.New("the store already holds frames"))
	} else {
		err = w.append(appendFrame(nil, append([]byte{recMeta}, meta...)))
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadMeta returns the meta WriteMeta recorded in dir, and writes nothing.
// It returns nil, nil when wal-0.log holds no whole frame — dir or the log
// is missing, or the log holds only a torn tail, as a crash inside
// WriteMeta leaves — and an error matching ErrNoMeta, naming the log, when
// its first frame is an add. A directory Open refuses, or a bad first frame
// with bytes after it, fails as it does in Open.
func ReadMeta(dir string, fsys FS) ([]byte, error) {
	if err := checkLayout(fsys, dir); err != nil {
		return nil, err
	}
	name := filepath.Join(dir, logFile)
	f, err := fsys.Open(name)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, pathErr("open", name, err)
	}
	defer f.Close()
	payload, ok, err := (&frameReader{r: f}).nextInLog()
	switch {
	case err != nil:
		return nil, pathErr("read", name, err)
	case !ok:
		return nil, nil
	case payload[0] != recMeta:
		return nil, pathErr("read", name, ErrNoMeta)
	}
	return payload[1:], nil
}

// mkdirSynced creates dir and any missing parents, committing each level it
// creates by syncing that level's parent: a directory entry is durable only
// once its parent is synced, so without this a new store directory, and the
// acknowledged frames inside it, could vanish at power loss. When a sync
// fails it removes the levels it created, so the next Open creates and
// commits them again rather than taking them for committed.
func mkdirSynced(fsys FS, dir string) error {
	var created []string
	for d := filepath.Clean(dir); !exists(fsys, d); d = filepath.Dir(d) {
		created = append(created, d)
		if filepath.Dir(d) == d {
			break
		}
	}
	if len(created) == 0 {
		return nil
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return pathErr("mkdir", dir, err)
	}
	for i := len(created) - 1; i >= 0; i-- {
		parent := filepath.Dir(created[i])
		if err := fsys.SyncDir(parent); err != nil {
			for _, d := range created { // deepest first
				fsys.Remove(d)
			}
			return pathErr("syncdir", parent, err)
		}
	}
	return nil
}

// replayLog returns the tables of the log's valid frames and truncates a
// torn tail. A bad frame with bytes after it is not a tail: the open fails
// and the log is not touched.
func (w *Store) replayLog() ([]*table.Table, error) {
	if !exists(w.fs, w.logName) {
		return nil, nil
	}
	f, err := w.fs.Open(w.logName)
	if err != nil {
		return nil, pathErr("open", w.logName, err)
	}
	defer f.Close()
	var tables []*table.Table
	fr := &frameReader{r: f}
	for {
		start := fr.valid
		payload, ok, err := fr.nextInLog()
		// Frame 0 may be WriteMeta's, which holds no tables.
		if err == nil && ok && (payload[0] != recMeta || start != 0) {
			tables, err = w.replayFrame(payload, tables)
		}
		if err != nil {
			return nil, pathErr("replay", w.logName, err)
		}
		if !ok {
			break
		}
	}
	size, err := w.fs.Stat(w.logName)
	if err != nil {
		return nil, pathErr("stat", w.logName, err)
	}
	if size > fr.valid {
		if err := w.fs.Truncate(w.logName, fr.valid); err != nil {
			return nil, pathErr("truncate", w.logName, err)
		}
	}
	w.committed = fr.valid
	return tables, nil
}

// replayFrame appends the tables of one non-empty checksummed frame to
// tables. The checksum already passed, so a decode failure here means a
// format bug, not a torn write — fail the open rather than silently drop
// acknowledged data.
func (w *Store) replayFrame(payload []byte, tables []*table.Table) ([]*table.Table, error) {
	switch payload[0] {
	case recAdd:
		d := &decoder{buf: payload[1:]}
		nv := d.count(1)
		for i := 0; i < nv && d.err == nil; i++ {
			w.dict.Intern(d.str())
		}
		batch := decodeTables(d, w.dict)
		if err := d.done(); err != nil {
			return nil, err
		}
		if err := checkTables(batch); err != nil {
			return nil, err
		}
		return append(tables, batch...), nil
	case recMeta:
		return nil, fmt.Errorf("%w: meta record outside frame 0 of wal-0.log", errCorrupt)
	default:
		return nil, fmt.Errorf("%w: unknown record type %d", errCorrupt, payload[0])
	}
}

// AppendAdd makes one Add batch durable: intern its cells, frame the newly
// seen dictionary values plus the symbol-encoded tables, append, fsync. On
// a write or sync failure the partial frame is cut back off the log so the
// file stays appendable, and transient faults are retried with bounded
// exponential backoff — the frame is valid to rewrite verbatim, because
// durableVals only advances on success. Once retries exhaust (or the fault
// is permanent, or the log's tail cannot be repaired) the store degrades.
// A degraded store's next AppendAdd first probes the log: it repairs the
// tail and checks that the log syncs, and only then writes. While the
// probe fails, AppendAdd fails fast with an ErrDegraded-matching error; the
// first one after the filesystem heals re-arms the log and appends.
func (w *Store) AppendAdd(tables []*table.Table) error {
	if w.degraded != nil && w.probe() != nil {
		return &degradedError{cause: w.degraded}
	}
	for _, t := range tables {
		for _, row := range t.Rows {
			for _, c := range row {
				if !c.IsNull {
					w.dict.Intern(c.Val)
				}
			}
		}
	}
	e := &encoder{buf: append(w.buf[:0], recAdd)}
	newLen := w.dict.Len()
	e.uvarint(uint64(newLen - w.durableVals))
	for sym := w.durableVals + 1; sym <= newLen; sym++ {
		e.str(w.dict.Value(uint32(sym)))
	}
	encodeTables(e, tables, func(v string) uint32 {
		sym, _ := w.dict.Symbol(v)
		return sym
	})
	w.buf = e.buf
	if err := w.append(appendFrame(nil, e.buf)); err != nil {
		return err
	}
	w.durableVals = newLen
	return nil
}

// append makes one frame durable, retrying transient faults and degrading
// the store once they exhaust, as AppendAdd describes.
func (w *Store) append(frame []byte) error {
	for attempt := 0; ; attempt++ {
		err := w.writeFrame(frame)
		if err == nil {
			w.committed += int64(len(frame))
			return nil
		}
		// Cut the partial frame back off before anything else: appending
		// over a dirty tail would leave a bad frame inside the log, which
		// the next open refuses as corruption. If even the repair fails,
		// the log is not safely appendable — degrade now and let the next
		// append's probe fix the tail.
		if rerr := w.repair(); rerr != nil {
			return w.degrade(fmt.Errorf("wal: log unrepairable after failed append (%v): %w", err, rerr))
		}
		if !IsTransient(err) || attempt >= w.retryN {
			return w.degrade(err)
		}
		sleepBackoff(w.retryBase, attempt)
	}
}

// writeFrame appends one framed record and syncs it — the unit the retry
// loop repeats.
func (w *Store) writeFrame(frame []byte) error {
	if err := w.ensureLog(); err != nil {
		return err
	}
	if _, err := w.log.Write(frame); err != nil {
		return err
	}
	return w.log.Sync()
}

// repair cuts a failed append's partial frame back off the log, restoring
// it to the last acknowledged frame boundary. Values the failed frame had
// declared stay interned above durableVals and are simply re-declared by
// the next successful frame.
func (w *Store) repair() error {
	// The append handle may be positioned past the partial write; reopen at
	// the repaired length instead of trusting it.
	if w.log != nil {
		w.log.Close()
		w.log = nil
	}
	size, err := w.fs.Stat(w.logName)
	if errors.Is(err, os.ErrNotExist) {
		// The failed attempt never created the file; nothing to cut.
		return nil
	}
	if err != nil {
		// Unknown tail state: treating it as clean could let a retry append
		// over a partial frame, so surface the failure instead.
		return err
	}
	if size <= w.committed {
		return nil
	}
	return w.fs.Truncate(w.logName, w.committed)
}

// degrade records the fault that made writes unavailable (the first one
// sticks as the cause) and returns it wrapped to match ErrDegraded.
func (w *Store) degrade(cause error) error {
	if w.degraded == nil {
		w.degraded = cause
	}
	return &degradedError{cause: w.degraded}
}

// Degraded reports why writes are unavailable — an ErrDegraded-matching
// error wrapping the original fault — or nil when the store is healthy.
func (w *Store) Degraded() error {
	if w.degraded == nil {
		return nil
	}
	return &degradedError{cause: w.degraded}
}

// probe attempts to leave degraded mode: it repairs the log tail back to
// the last acknowledged frame boundary, reopens the append handle, and
// verifies it syncs. On success it clears the degraded mark; on failure
// the store stays degraded and probe returns the still-failing step's
// error. AppendAdd is its only caller.
func (w *Store) probe() error {
	if err := w.repair(); err != nil {
		return err
	}
	if err := w.ensureLog(); err != nil {
		return err
	}
	if err := w.log.Sync(); err != nil {
		w.log.Close()
		w.log = nil
		return err
	}
	w.degraded = nil
	return nil
}

// ensureLog opens the append handle, creating the log file (and committing
// its directory entry) on first use after open.
func (w *Store) ensureLog() error {
	if w.log != nil {
		return nil
	}
	existed := exists(w.fs, w.logName)
	f, err := w.fs.OpenAppend(w.logName)
	if err != nil {
		return pathErr("open", w.logName, err)
	}
	if !existed {
		if err := w.fs.SyncDir(w.dir); err != nil {
			f.Close()
			return pathErr("syncdir", w.dir, err)
		}
	}
	w.log = f
	return nil
}

// Close releases the log handle. It does not sync: every acknowledged
// append already is.
func (w *Store) Close() error {
	if w.log != nil {
		err := w.log.Close()
		w.log = nil
		return err
	}
	return nil
}
