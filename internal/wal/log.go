package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame format, the unit of both the log and every snapshot segment:
//
//	+----------------+----------------+=================+
//	| length (4B LE) | CRC32C (4B LE) |     payload     |
//	+----------------+----------------+=================+
//
// length counts payload bytes; the checksum is CRC32C (Castagnoli) over
// the payload. A frame is valid iff the header fits, the payload fits,
// and the checksum matches — anything else at the end of a log is a torn
// tail and is truncated on open rather than failing recovery. The first
// payload byte of log frames is a record-type tag.
const frameHeader = 8

// maxFramePayload bounds a single frame. A length field larger than this
// is treated as corruption rather than attempted as an allocation.
const maxFramePayload = 1 << 30

// eagerPayload is the largest payload read into a buffer allocated up front
// from the header's length.
const eagerPayload = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log record types.
const (
	recAdd = byte(1) // one Add: new dictionary values + the table batch
)

// appendFrame appends a framed payload to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// frameReader pulls checksummed frames off a byte stream, remembering the
// offset of the last fully valid frame boundary so the caller can truncate
// a torn tail.
type frameReader struct {
	r     io.Reader
	valid int64 // offset after the last good frame
	hdr   [frameHeader]byte
}

// next returns the next frame's payload. ok=false with nil err means the
// stream ended — cleanly at a frame boundary, or with a torn/corrupt tail
// (Truncated reports which); a non-nil err is a genuine read failure.
func (fr *frameReader) next() (payload []byte, ok bool, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, false, nil
		}
		return nil, false, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[0:4])
	want := binary.LittleEndian.Uint32(fr.hdr[4:8])
	if n > maxFramePayload {
		return nil, false, nil // absurd length: corrupt header
	}
	// Past eagerPayload the length is not trusted with an allocation: the
	// payload grows as its bytes arrive, so a corrupt header costs at most
	// twice what the stream holds.
	if n <= eagerPayload {
		payload = make([]byte, n)
		_, err = io.ReadFull(fr.r, payload)
	} else if payload, err = io.ReadAll(io.LimitReader(fr.r, int64(n))); err == nil && len(payload) < int(n) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, false, nil
		}
		return nil, false, err
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, false, nil // bit flip or torn rewrite
	}
	fr.valid += frameHeader + int64(n)
	return payload, true, nil
}

// readSegment reads a single-frame segment file in full, verifying its
// checksum; segments, unlike the log, must be intact to be usable.
func readSegment(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, pathErr("open", name, err)
	}
	defer f.Close()
	fr := &frameReader{r: f}
	payload, ok, err := fr.next()
	if err != nil {
		return nil, pathErr("read", name, err)
	}
	if !ok {
		return nil, pathErr("read", name, fmt.Errorf("%w: bad segment frame", errCorrupt))
	}
	// Trailing bytes after the frame would mean the segment writer is
	// broken; tolerate nothing.
	var extra [1]byte
	if n, _ := f.Read(extra[:]); n != 0 {
		return nil, pathErr("read", name, fmt.Errorf("%w: trailing bytes", errCorrupt))
	}
	return payload, nil
}
