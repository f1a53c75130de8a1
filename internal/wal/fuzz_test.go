package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// FuzzFrameReader feeds arbitrary bytes to the frame reader. It must never
// panic, and what it accepts must be a run of whole frames: each payload
// re-frames to exactly the input bytes it was read from, so valid — the
// point a torn tail is truncated back to — ends on a frame boundary inside
// the input.
func FuzzFrameReader(f *testing.F) {
	one := appendFrame(nil, []byte{recAdd, 0, 0})
	two := appendFrame(slices.Clone(one), []byte("second payload"))
	flipped := slices.Clone(two)
	flipped[len(one)+frameHeader] ^= 1
	huge := binary.LittleEndian.AppendUint32(nil, maxFramePayload+1)
	f.Add([]byte{})
	f.Add(appendFrame(nil, nil))
	f.Add(two)
	f.Add(two[:len(two)-3]) // torn tail
	f.Add(flipped)          // checksum mismatch in the second frame
	f.Add(append(huge, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &frameReader{r: bytes.NewReader(data)}
		var reframed []byte
		for {
			payload, ok, err := fr.next()
			if err != nil {
				t.Fatalf("read error from an in-memory stream: %v", err)
			}
			if !ok {
				break
			}
			reframed = appendFrame(reframed, payload)
			if fr.valid != int64(len(reframed)) {
				t.Fatalf("valid = %d after %d bytes of accepted frames", fr.valid, len(reframed))
			}
		}
		if fr.valid > int64(len(data)) {
			t.Fatalf("valid = %d past the %d-byte input", fr.valid, len(data))
		}
		if !bytes.Equal(reframed, data[:fr.valid]) {
			t.Fatalf("accepted frames do not re-frame to the input's first %d bytes", fr.valid)
		}
	})
}

// writeCounter wraps an FS and counts the calls that change it; writes
// need a file that OpenAppend or Create returned.
type writeCounter struct {
	FS
	n int
}

func (c *writeCounter) MkdirAll(dir string) error { c.n++; return c.FS.MkdirAll(dir) }
func (c *writeCounter) OpenAppend(name string) (File, error) {
	c.n++
	return c.FS.OpenAppend(name)
}
func (c *writeCounter) Truncate(name string, size int64) error {
	c.n++
	return c.FS.Truncate(name, size)
}
func (c *writeCounter) Remove(name string) error { c.n++; return c.FS.Remove(name) }
func (c *writeCounter) SyncDir(dir string) error { c.n++; return c.FS.SyncDir(dir) }

// FuzzOpenLog plants fuzzed bytes as a store directory's wal-0.log. Open
// must never panic: it either fails or recovers tables whose rows all fit
// their columns, with no meta frame left after the first. ReadMeta writes
// nothing, and it agrees with Open: a log that opens gives the same answer
// before and after Open's truncation, a log ReadMeta finds corrupt does not
// open, and a log ReadMeta finds empty opens to no tables and no bytes.
func FuzzOpenLog(f *testing.F) {
	meta := appendFrame(nil, append([]byte{recMeta}, `{"equi":true}`...))
	fs := NewMemFS()
	w, _, err := Open("sess", fs)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.AppendAdd(batch(i)); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	adds, _ := readAll(fs, "sess/wal-0.log")
	first := frameHeader + int(binary.LittleEndian.Uint32(adds))
	f.Add(append(slices.Clone(meta), adds...))
	f.Add(meta)
	f.Add(adds) // a log no WriteMeta started
	f.Add(append(append(slices.Clone(adds[:first]), meta...), adds[first:]...))
	f.Add(meta[:len(meta)-3]) // torn
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := NewMemFS()
		if err := mem.MkdirAll("sess"); err != nil {
			t.Fatal(err)
		}
		if err := writeFileSync(mem, "sess/wal-0.log", data); err != nil {
			t.Fatal(err)
		}
		fs := &writeCounter{FS: mem}
		got, merr := ReadMeta("sess", fs)
		if fs.n != 0 {
			t.Fatalf("ReadMeta made %d changing calls", fs.n)
		}
		w, rec, err := Open("sess", mem)
		if err != nil {
			return
		}
		defer w.Close()
		if err := checkTables(rec); err != nil {
			t.Fatalf("open accepted malformed tables: %v", err)
		}
		if merr != nil && !errors.Is(merr, ErrNoMeta) {
			t.Fatalf("ReadMeta failed (%v) on a log that opens", merr)
		}
		after, aerr := ReadMeta("sess", mem)
		if fmt.Sprint(aerr) != fmt.Sprint(merr) || !bytes.Equal(after, got) || (after == nil) != (got == nil) {
			t.Fatalf("ReadMeta = %q, %v before Open and %q, %v after", got, merr, after, aerr)
		}
		kept, _ := readAll(mem, "sess/wal-0.log")
		if got == nil && merr == nil && (len(rec) != 0 || len(kept) != 0) {
			t.Fatalf("ReadMeta found nothing, Open kept %d tables in %d bytes", len(rec), len(kept))
		}
		fr := &frameReader{r: bytes.NewReader(kept)}
		for i := 0; ; i++ {
			payload, ok, _ := fr.next()
			if !ok {
				break
			}
			if i > 0 && len(payload) > 0 && payload[0] == recMeta {
				t.Fatalf("Open accepted a meta frame as frame %d", i)
			}
		}
	})
}
