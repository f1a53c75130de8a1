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

// On-disk layout of a store directory at sequence S:
//
//	CURRENT        → "S\n" — pointer to the committed snapshot (absent before
//	                 the first snapshot)
//	snap-S/        → manifest.json + dict.seg + tables.seg
//	wal-S.log      → Add frames recorded since snap-S
//
// A snapshot holds what the log holds — the dictionary and the accumulated
// tables — and nothing derived from them: the session recomputes its
// integration from the recovered tables. Other files in snap-S/ are
// ignored, and leave with the directory at the next rotation.
//
// Snapshot commit protocol (each step crash-durable before the next):
//
//	1. write snap-S'.tmp/ with every segment fsync'd, sync the tmp dir
//	2. rename snap-S'.tmp → snap-S', sync the store dir
//	3. write CURRENT.tmp, fsync, rename → CURRENT, sync the store dir
//	4. switch appends to wal-S'.log; best-effort delete snap-S, wal-S.log
//
// A crash before step 3 leaves CURRENT pointing at S, whose snapshot and
// log are untouched — the orphan snap-S' is deleted on the next open. A
// crash after step 3 recovers at S' with an absent (= empty) log. CURRENT
// is the single commit point.
//
// Recovery resolution ladder:
//
//	1. CURRENT parses → its snapshot MUST load; a committed snapshot that
//	   fails its checksum is a hard open error naming the bad file, because
//	   acknowledged data is unrecoverable.
//	2. CURRENT absent or unparseable → scan for the highest snap-* that
//	   loads cleanly (covers both a fresh directory and a lost CURRENT).
//	3. Replay wal-S.log, truncating a torn or corrupt tail at the last
//	   valid frame boundary — an interrupted append is the expected crash
//	   residue, never an open failure.

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
// batch, snapshot content plus replayed log tail, in Add order.
type Recovered struct {
	Tables []*table.Table
}

// Store is the durable backing of one session: an fsync-per-Add record log
// plus rotating snapshots. It has no lock of its own: the owning
// core.Session makes every call under its mutex s.mu (the read-only
// Degraded under the read lock), which also keeps log order equal to memory
// order.
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

	seq       uint64
	logName   string
	log       File  // nil until the first append after open/rotate
	committed int64 // log offset up to which frames are acknowledged
	frames    int   // acknowledged frames in the current log

	// degraded, when non-nil, records the fault that exhausted the write
	// retries: appends and snapshots are refused (read state is untouched)
	// until Probe verifies the log is appendable again and clears it.
	degraded error

	retryN    int           // transient-fault retries before degrading (retryAttempts)
	retryBase time.Duration // first backoff step between retries (retryBase)
	retried   int64         // transient faults retried away, for diagnostics

	buf []byte // payload scratch, reused across appends
}

// Open opens (or creates) a store directory, recovering whatever state
// survived: latest committed snapshot, then the log tail, with a torn tail
// truncated rather than rejected. A nil fsys means the operating system's
// filesystem.
func Open(dir string, fsys FS) (*Store, *Recovered, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, pathErr("mkdir", dir, err)
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

// dropOrphans removes leftovers of interrupted snapshots: tmp directories,
// and snapshots or logs at any sequence other than the recovered one (an
// uncommitted snap-S+1 must go, or a later scan-based recovery could adopt
// it and silently skip the committed log's frames). Best effort.
func (w *Store) dropOrphans() {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return
	}
	for _, n := range names {
		full := filepath.Join(w.dir, n)
		switch {
		case strings.HasSuffix(n, ".tmp"):
			if strings.HasPrefix(n, "snap-") {
				removeTree(w.fs, full)
			} else {
				w.fs.Remove(full)
			}
		case strings.HasPrefix(n, "snap-"):
			if n != snapDirName(w.seq) {
				removeTree(w.fs, full)
			}
		case strings.HasPrefix(n, "wal-"):
			if n != logFileName(w.seq) {
				w.fs.Remove(full)
			}
		}
	}
}

// replayLog replays the current log's valid frames into rec and truncates
// anything past the last valid frame boundary.
func (w *Store) replayLog(rec *Recovered) error {
	if !exists(w.fs, w.logName) {
		return nil
	}
	f, err := w.fs.Open(w.logName)
	if err != nil {
		return pathErr("open", w.logName, err)
	}
	fr := &frameReader{r: f}
	for {
		payload, ok, err := fr.next()
		if err != nil {
			f.Close()
			return pathErr("read", w.logName, err)
		}
		if !ok {
			break
		}
		if err := w.replayFrame(payload, rec); err != nil {
			f.Close()
			return pathErr("replay", w.logName, err)
		}
		w.frames++
	}
	f.Close()
	if size, err := w.fs.Stat(w.logName); err == nil && size > fr.valid {
		if err := w.fs.Truncate(w.logName, fr.valid); err != nil {
			return pathErr("truncate", w.logName, err)
		}
	}
	w.committed = fr.valid
	return nil
}

// replayFrame applies one checksummed frame. The checksum already passed,
// so a decode failure here means a format bug, not a torn write — fail the
// open rather than silently drop acknowledged data.
func (w *Store) replayFrame(payload []byte, rec *Recovered) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty frame", errCorrupt)
	}
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
	frame := appendFrame(nil, e.buf)

	for attempt := 0; ; attempt++ {
		err := w.writeFrame(frame)
		if err == nil {
			w.committed += int64(len(frame))
			w.durableVals = newLen
			w.frames++
			return nil
		}
		// Cut the partial frame back off before anything else: appending
		// over a dirty tail would make replay stop at the garbage and drop
		// every frame after it. If even the repair fails, the log is not
		// safely appendable — degrade now and let Probe fix the tail later.
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

// Retried reports how many transient faults the retry loops absorbed, for
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
// its directory entry) on first use after open or rotation.
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

// FramesSinceSnapshot reports acknowledged log frames not yet covered by a
// snapshot — the session's trigger for auto-snapshotting. Replayed tail
// frames count, so a session that crashed with a long tail compacts soon
// after reopening.
func (w *Store) FramesSinceSnapshot() int { return w.frames }

// Snapshot writes a new committed snapshot of the full session state —
// tables is the complete accumulated table list — then rotates the log.
// Transient faults are retried with backoff; each attempt restarts from a
// clean slate, which is safe because nothing is committed until the CURRENT
// pointer flips (the last step of an attempt). On success the previous
// snapshot and log are obsolete and deleted (best effort); on failure the
// store continues on its current snapshot and log — the log stays
// authoritative, so a failed snapshot is never fatal and Snapshot can
// simply be retried later.
func (w *Store) Snapshot(tables []*table.Table) error {
	if w.degraded != nil && w.Probe() != nil {
		return &degradedError{cause: w.degraded}
	}
	newSeq := w.seq + 1
	for attempt := 0; ; attempt++ {
		err := w.prepareSnapshot(tables, newSeq)
		if err == nil {
			break
		}
		if !IsTransient(err) || attempt >= w.retryN {
			return err
		}
		w.retried++
		sleepBackoff(w.retryBase, attempt)
	}
	w.finishRotate(newSeq)
	return nil
}

// prepareSnapshot runs one snapshot attempt through its commit point, the
// CURRENT rename. Every earlier step is uncommitted residue that the next
// attempt's pre-clean (or the next open's orphan sweep) removes, so the
// whole function is safe to retry.
func (w *Store) prepareSnapshot(tables []*table.Table, newSeq uint64) error {
	final := filepath.Join(w.dir, snapDirName(newSeq))
	tmp := final + ".tmp"
	// Leftovers of a previous failed attempt at this sequence cannot be a
	// committed snapshot (commit would have advanced w.seq); clear them.
	if exists(w.fs, tmp) {
		removeTree(w.fs, tmp)
	}
	if exists(w.fs, final) {
		removeTree(w.fs, final)
	}
	if err := w.fs.MkdirAll(tmp); err != nil {
		return pathErr("mkdir", tmp, err)
	}

	// Segments. The snapshot dictionary is the store dictionary in full:
	// replay reconstructs the identical symbol assignment from it.
	e := &encoder{}
	e.uvarint(uint64(w.dict.Len()))
	for sym := 1; sym <= w.dict.Len(); sym++ {
		e.str(w.dict.Value(uint32(sym)))
	}
	if err := writeSegment(w.fs, filepath.Join(tmp, "dict.seg"), e.buf); err != nil {
		return err
	}
	e = &encoder{}
	encodeTables(e, tables, func(v string) uint32 {
		sym, ok := w.dict.Symbol(v)
		if !ok {
			// Snapshot state must be WAL-covered: the session appends to the
			// log before memory, so every cell value is already interned.
			panic(fmt.Sprintf("wal: snapshot cell %q not in store dictionary", v))
		}
		return sym
	})
	if err := writeSegment(w.fs, filepath.Join(tmp, "tables.seg"), e.buf); err != nil {
		return err
	}
	manJSON, err := json.Marshal(manifest{Seq: newSeq, Dict: "dict.seg", Tables: "tables.seg"})
	if err != nil {
		return fmt.Errorf("wal: encode manifest: %w", err)
	}
	if err := WriteFileSync(w.fs, filepath.Join(tmp, "manifest.json"), manJSON); err != nil {
		return pathErr("write", filepath.Join(tmp, "manifest.json"), err)
	}
	if err := w.fs.SyncDir(tmp); err != nil {
		return pathErr("syncdir", tmp, err)
	}

	// Publish the snapshot directory, then flip CURRENT — the commit point.
	if err := w.fs.Rename(tmp, final); err != nil {
		return pathErr("rename", final, err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		return pathErr("syncdir", w.dir, err)
	}
	curTmp := filepath.Join(w.dir, currentFile+".tmp")
	if err := WriteFileSync(w.fs, curTmp, []byte(strconv.FormatUint(newSeq, 10)+"\n")); err != nil {
		return pathErr("write", curTmp, err)
	}
	if err := w.fs.Rename(curTmp, filepath.Join(w.dir, currentFile)); err != nil {
		return pathErr("rename", currentFile, err)
	}
	return nil
}

// finishRotate completes a committed snapshot: make the CURRENT flip
// durable, switch appends to the new generation's fresh log, and drop the
// superseded one. The directory sync is retried on its own; if it never
// succeeds, the old snapshot and log are kept — a crash that rolled the
// flip back must still find them intact — but in-memory state advances
// regardless, because the flip is already visible to this process.
func (w *Store) finishRotate(newSeq uint64) {
	err := w.fs.SyncDir(w.dir)
	for attempt := 0; err != nil && IsTransient(err) && attempt < w.retryN; attempt++ {
		w.retried++
		sleepBackoff(w.retryBase, attempt)
		err = w.fs.SyncDir(w.dir)
	}
	if w.log != nil {
		w.log.Close()
		w.log = nil
	}
	oldSeq, oldLog := w.seq, w.logName
	w.seq = newSeq
	w.logName = filepath.Join(w.dir, logFileName(newSeq))
	w.committed = 0
	w.frames = 0
	if err != nil {
		return
	}
	if exists(w.fs, oldLog) {
		w.fs.Remove(oldLog)
	}
	if oldSeq > 0 {
		removeTree(w.fs, filepath.Join(w.dir, snapDirName(oldSeq)))
	}
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

// writeSegment frames a payload and writes it as a segment file.
func writeSegment(fsys FS, name string, payload []byte) error {
	if err := WriteFileSync(fsys, name, appendFrame(nil, payload)); err != nil {
		return pathErr("write", name, err)
	}
	return nil
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
