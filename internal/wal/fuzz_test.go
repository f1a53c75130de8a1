package wal

import (
	"bytes"
	"encoding/binary"
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

// FuzzLoadSnapshot plants fuzzed manifest, dictionary, tables and
// component-segment bytes as the committed snapshot of a store directory.
// Open must never panic: it either fails or recovers tables whose rows all
// fit their columns.
func FuzzLoadSnapshot(f *testing.F) {
	man, dict, tables := validSnapshot(f)
	f.Add(man, dict, tables, []byte{})
	f.Add([]byte{}, []byte{}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, man, dict, tables, comp []byte) {
		fs := NewMemFS()
		sdir := "sess/" + snapDirName(1)
		if err := fs.MkdirAll(sdir); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{
			"sess/" + currentFile:   []byte("1\n"),
			sdir + "/manifest.json": man,
			sdir + "/dict.seg":      dict,
			sdir + "/tables.seg":    tables,
			sdir + "/comp-0.seg":    comp,
		}
		for name, data := range files {
			if err := writeFileSync(fs, name, data, false); err != nil {
				t.Fatal(err)
			}
		}
		w, rec, err := Open("sess", Options{FS: fs})
		if err != nil {
			return
		}
		defer w.Close()
		if err := checkTables(rec.Tables); err != nil {
			t.Fatalf("open accepted malformed tables: %v", err)
		}
	})
}

// validSnapshot writes a real snapshot of two batches and returns its
// manifest, dictionary and tables bytes.
func validSnapshot(tb testing.TB) (man, dict, tables []byte) {
	fs := NewMemFS()
	w, _, err := Open("sess", Options{FS: fs})
	if err != nil {
		tb.Fatal(err)
	}
	defer w.Close()
	all := append(batch(0), batch(1)...)
	if err := w.AppendAdd(all); err != nil {
		tb.Fatal(err)
	}
	if err := w.Snapshot(all); err != nil {
		tb.Fatal(err)
	}
	read := func(name string) []byte {
		data, err := readAll(fs, "sess/snap-1/"+name)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	return read("manifest.json"), read("dict.seg"), read("tables.seg")
}
