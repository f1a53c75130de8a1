package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// On-disk layout of a store directory:
//
//	wal-S.log      → every acknowledged Add frame, in order
//
// A new directory holds wal-0.log and nothing else: the log is the store.
// Its frame 0 may be a meta frame, the caller's opaque metadata (the
// daemon's session options), which WriteMeta writes into an empty log and
// ReadMeta reads back; Open skips it, and a meta frame anywhere else is
// corruption. Directories written by earlier versions may also hold a
// committed snapshot, which the store still reads and never writes:
//
//	CURRENT        → "S\n" — pointer to the committed snapshot
//	snap-S/        → manifest.json + dict.seg + tables.seg: the dictionary
//	                 and the tables of every frame before wal-S.log's first
//
// Appends on such a directory continue in wal-S.log. Other files in snap-S/
// (the per-component segments older versions wrote) are ignored.
//
// Recovery resolution ladder:
//
//	1. CURRENT parses → its snapshot MUST load; a committed snapshot that
//	   fails its checksum is a hard open error naming the bad file, because
//	   acknowledged data is unrecoverable.
//	2. CURRENT absent or unparseable → scan for the highest snap-* that
//	   loads cleanly; a directory without one starts at sequence 0.
//	3. Replay wal-S.log. A bad frame that runs to the end of the file is
//	   the residue of an interrupted append and is truncated, never an open
//	   failure; so is an all-zero frame with only zeros after it, the tail
//	   a filesystem that extends a file before its data lands leaves. A bad
//	   frame with bytes after it is corruption of acknowledged frames: the
//	   open fails naming the log and the frame's offset, and the log is left
//	   as it is. One case cannot be told apart from a torn tail: a flipped
//	   length field that claims more bytes than the file holds. Its frame
//	   and every later one are truncated.

// currentFile is the committed-snapshot pointer file.
const currentFile = "CURRENT"

func snapDirName(seq uint64) string { return fmt.Sprintf("snap-%d", seq) }
func logFileName(seq uint64) string { return fmt.Sprintf("wal-%d.log", seq) }

// manifest is the snapshot's table of contents. Segments are individually
// framed and checksummed; the manifest only names them. Keys it does not
// declare, such as the "comps" list of directories written when snapshots
// also held per-component segments, are ignored.
type manifest struct {
	Seq    uint64 `json:"seq"`
	Dict   string `json:"dict"`
	Tables string `json:"tables"`
}

// Recovered is what Open reconstructed from disk: every acknowledged table
// batch, snapshot content (in a directory that has one) plus replayed log,
// in Add order.
type Recovered struct {
	Tables []*table.Table
}

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

	seq       uint64 // the recovered snapshot's sequence; 0 without one
	logName   string
	log       File  // nil until the first append after open
	committed int64 // log offset up to which frames are acknowledged

	// degraded, when non-nil, records the fault that exhausted the write
	// retries: appends are refused (read state is untouched) until Probe
	// verifies the log is appendable again and clears it.
	degraded error

	retryN    int           // transient-fault retries before degrading (retryAttempts)
	retryBase time.Duration // first backoff step between retries (retryBase)
	retried   int64         // transient faults retried away, for diagnostics

	buf []byte // payload scratch, reused across appends
}

// Open opens (or creates) a store directory, recovering every acknowledged
// batch: a legacy committed snapshot if the directory has one, then the
// log, with a torn tail truncated rather than rejected and a corrupt
// interior frame reported. A nil fsys means the operating system's
// filesystem.
func Open(dir string, fsys FS) (*Store, *Recovered, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := mkdirSynced(fsys, dir); err != nil {
		return nil, nil, err
	}
	w := &Store{
		fs: fsys, dir: dir, dict: intern.NewDict(),
		retryN: retryAttempts, retryBase: retryBase,
	}
	rec := &Recovered{}

	seq, err := w.resolveSnapshot(rec)
	if err != nil {
		return nil, nil, err
	}
	w.seq = seq
	w.logName = filepath.Join(dir, logFileName(seq))
	w.dropOrphans()
	if err := w.replayLog(rec); err != nil {
		return nil, nil, err
	}
	w.durableVals = w.dict.Len()
	return w, rec, nil
}

// ErrNoMeta reports a log whose first frame is an add, not a meta frame:
// one an earlier version wrote, or one no WriteMeta started.
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
	if w.committed != 0 || w.seq != 0 {
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
// WriteMeta leaves — and ErrNoMeta when its first frame is an add. A bad
// first frame with bytes after it is corruption, as it is to Open.
func ReadMeta(dir string, fsys FS) ([]byte, error) {
	name := filepath.Join(dir, logFileName(0))
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
		return nil, ErrNoMeta
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

// resolveSnapshot picks the snapshot to recover from (0 = none) and loads
// it into rec, following the resolution ladder documented above.
func (w *Store) resolveSnapshot(rec *Recovered) (uint64, error) {
	cur := filepath.Join(w.dir, currentFile)
	if data, err := readAll(w.fs, cur); err == nil {
		if seq, perr := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64); perr == nil && seq > 0 {
			// Committed pointer: the snapshot it names must be intact.
			dict, tables, lerr := loadSnapshot(w.fs, w.dir, seq)
			if lerr != nil {
				return 0, fmt.Errorf("wal: committed snapshot %s unreadable: %w", snapDirName(seq), lerr)
			}
			w.dict, rec.Tables = dict, tables
			return seq, nil
		}
	}
	// No usable CURRENT: adopt the highest snapshot that loads cleanly.
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return 0, pathErr("readdir", w.dir, err)
	}
	var seqs []uint64
	for _, n := range names {
		if rest, ok := strings.CutPrefix(n, "snap-"); ok && !strings.HasSuffix(n, ".tmp") {
			if seq, perr := strconv.ParseUint(rest, 10, 64); perr == nil && seq > 0 {
				seqs = append(seqs, seq)
			}
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		dict, tables, lerr := loadSnapshot(w.fs, w.dir, seq)
		if lerr != nil {
			continue
		}
		w.dict, rec.Tables = dict, tables
		return seq, nil
	}
	return 0, nil
}

// dropOrphans removes what snapshot writers of earlier versions left behind
// when interrupted: tmp directories, and snapshots or logs at any sequence
// other than the recovered one (an uncommitted snap-S+1 must go, or a later
// scan-based recovery could adopt it and silently skip the committed log's
// frames). Best effort.
func (w *Store) dropOrphans() {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") ||
			strings.HasPrefix(n, "snap-") && n != snapDirName(w.seq) ||
			strings.HasPrefix(n, "wal-") && n != logFileName(w.seq) {
			RemoveAll(w.fs, filepath.Join(w.dir, n))
		}
	}
}

// replayLog replays the log's valid frames into rec and truncates a torn
// tail. A bad frame with bytes after it is not a tail: the open fails and
// the log is not touched.
func (w *Store) replayLog(rec *Recovered) error {
	if !exists(w.fs, w.logName) {
		return nil
	}
	f, err := w.fs.Open(w.logName)
	if err != nil {
		return pathErr("open", w.logName, err)
	}
	defer f.Close()
	fr := &frameReader{r: f}
	for {
		start := fr.valid
		payload, ok, err := fr.nextInLog()
		// Frame 0 of wal-0.log may be WriteMeta's, which holds no tables.
		if err == nil && ok && (payload[0] != recMeta || start != 0 || w.seq != 0) {
			err = w.replayFrame(payload, rec)
		}
		if err != nil {
			return pathErr("replay", w.logName, err)
		}
		if !ok {
			break
		}
	}
	size, err := w.fs.Stat(w.logName)
	if err != nil {
		return pathErr("stat", w.logName, err)
	}
	if size > fr.valid {
		if err := w.fs.Truncate(w.logName, fr.valid); err != nil {
			return pathErr("truncate", w.logName, err)
		}
	}
	w.committed = fr.valid
	return nil
}

// replayFrame applies one non-empty checksummed frame. The checksum already
// passed, so a decode failure here means a format bug, not a torn write —
// fail the open rather than silently drop acknowledged data.
func (w *Store) replayFrame(payload []byte, rec *Recovered) error {
	switch payload[0] {
	case recAdd:
		d := &decoder{buf: payload[1:]}
		nv := d.count(1)
		for i := 0; i < nv && d.err == nil; i++ {
			w.dict.Intern(d.str())
		}
		tables := decodeTables(d, w.dict)
		if err := d.done(); err != nil {
			return err
		}
		if err := checkTables(tables); err != nil {
			return err
		}
		rec.Tables = append(rec.Tables, tables...)
		return nil
	case recMeta:
		return fmt.Errorf("%w: meta record outside frame 0 of wal-0.log", errCorrupt)
	default:
		return fmt.Errorf("%w: unknown record type %d", errCorrupt, payload[0])
	}
}

// AppendAdd makes one Add batch durable: intern its cells, frame the newly
// seen dictionary values plus the symbol-encoded tables, append, fsync. On
// a write or sync failure the partial frame is cut back off the log so the
// file stays appendable, and transient faults are retried with bounded
// exponential backoff — the frame is valid to rewrite verbatim, because
// durableVals only advances on success. Once retries exhaust (or the fault
// is permanent, or the log's tail cannot be repaired) the store degrades:
// later writes fail fast with an ErrDegraded-matching error until Probe
// re-arms the log.
func (w *Store) AppendAdd(tables []*table.Table) error {
	if w.degraded != nil && w.Probe() != nil {
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
		// the log is not safely appendable — degrade now and let Probe fix
		// the tail later.
		if rerr := w.repair(); rerr != nil {
			return w.degrade(fmt.Errorf("wal: log unrepairable after failed append (%v): %w", err, rerr))
		}
		if !IsTransient(err) || attempt >= w.retryN {
			return w.degrade(err)
		}
		w.retried++
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

// Retried reports how many transient faults the retry loop absorbed, for
// diagnostics and tests.
func (w *Store) Retried() int64 { return w.retried }

// Probe attempts to leave degraded mode: it repairs the log tail back to
// the last acknowledged frame boundary, reopens the append handle, and
// verifies it syncs. On success writes flow again; on failure the store
// stays degraded and Probe reports the still-failing step. Healthy stores
// return nil immediately, so callers can probe unconditionally.
func (w *Store) Probe() error {
	if w.degraded == nil {
		return nil
	}
	if err := w.repair(); err != nil {
		return &degradedError{cause: err}
	}
	if err := w.ensureLog(); err != nil {
		return &degradedError{cause: err}
	}
	if err := w.log.Sync(); err != nil {
		w.log.Close()
		w.log = nil
		return &degradedError{cause: err}
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

// loadSnapshot reads one snapshot generation into fresh state, validating
// every segment's checksum. Nothing is shared with the store until the
// caller installs the result, so a failed load pollutes nothing.
func loadSnapshot(fsys FS, dir string, seq uint64) (*intern.Dict, []*table.Table, error) {
	sdir := filepath.Join(dir, snapDirName(seq))
	manJSON, err := readAll(fsys, filepath.Join(sdir, "manifest.json"))
	if err != nil {
		return nil, nil, pathErr("read", filepath.Join(sdir, "manifest.json"), err)
	}
	var man manifest
	if err := json.Unmarshal(manJSON, &man); err != nil {
		return nil, nil, pathErr("parse", filepath.Join(sdir, "manifest.json"), err)
	}
	if man.Seq != seq {
		return nil, nil, pathErr("parse", filepath.Join(sdir, "manifest.json"),
			fmt.Errorf("%w: manifest seq %d in %s", errCorrupt, man.Seq, snapDirName(seq)))
	}

	dict := intern.NewDict()
	payload, err := readSegment(fsys, filepath.Join(sdir, man.Dict))
	if err != nil {
		return nil, nil, err
	}
	d := &decoder{buf: payload}
	nv := d.count(1)
	for i := 0; i < nv && d.err == nil; i++ {
		dict.Intern(d.str())
	}
	if err := d.done(); err != nil {
		return nil, nil, pathErr("decode", filepath.Join(sdir, man.Dict), err)
	}

	payload, err = readSegment(fsys, filepath.Join(sdir, man.Tables))
	if err != nil {
		return nil, nil, err
	}
	d = &decoder{buf: payload}
	tables := decodeTables(d, dict)
	if err := d.done(); err != nil {
		return nil, nil, pathErr("decode", filepath.Join(sdir, man.Tables), err)
	}
	if err := checkTables(tables); err != nil {
		return nil, nil, err
	}
	return dict, tables, nil
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
