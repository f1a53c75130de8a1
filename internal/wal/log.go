package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame format, the unit of the log:
//
//	+----------------+----------------+=================+
//	| length (4B LE) | CRC32C (4B LE) |     payload     |
//	+----------------+----------------+=================+
//
// length counts payload bytes; the checksum is CRC32C (Castagnoli) over
// the payload. A frame is valid iff the header fits, the payload fits,
// and the checksum matches. A bad frame that reaches the end of a log is a
// torn tail and is truncated on open; one with bytes after it fails the
// open (see Open). The first payload byte is a record-type tag.
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
	recAdd  = byte(1) // one Add: new dictionary values + the table batch
	recMeta = byte(2) // the caller's opaque metadata: frame 0 of wal-0.log only
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
	// badEnd is the declared end of a whole frame that failed its checksum
	// (0 otherwise); the caller compares it with the stream's length to
	// tell a torn final frame from a corrupt interior one.
	badEnd int64
	hdr    [frameHeader]byte
}

// next returns the next frame's payload. ok=false with nil err means the
// stream ended — cleanly at a frame boundary, with a short frame, or at a
// frame that fails its checksum (badEnd set); a non-nil err is a genuine
// read failure.
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
		fr.badEnd = fr.valid + frameHeader + int64(n)
		return nil, false, nil // bit flip or torn rewrite
	}
	fr.valid += frameHeader + int64(n)
	return payload, true, nil
}

// nextInLog is next for a log, which ends cleanly at a frame boundary or
// at a torn tail: a bad frame that reaches the end of the stream, or an
// all-zero frame (its empty payload passes the checksum) with only zeros
// after it, where a filesystem extended the file before its data landed;
// valid stays at the tail's start. A bad or all-zero frame with other bytes
// after it is corruption.
func (fr *frameReader) nextInLog() (payload []byte, ok bool, err error) {
	start := fr.valid
	payload, ok, err = fr.next()
	switch {
	case err != nil || ok && len(payload) > 0:
		return payload, ok, err
	case ok:
		fr.valid = start
		rest, err := io.ReadAll(fr.r)
		if err == nil && len(bytes.TrimLeft(rest, "\x00")) > 0 {
			err = fmt.Errorf("%w: empty frame at offset %d, with non-zero bytes after it", errCorrupt, start)
		}
		return nil, false, err
	case fr.badEnd > 0:
		if _, err := io.ReadFull(fr.r, make([]byte, 1)); err == nil {
			return nil, false, fmt.Errorf("%w: frame at offset %d fails its checksum, with bytes after it", errCorrupt, start)
		}
	}
	return nil, false, nil
}
