package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// Binary encoding helpers. Everything the log stores is built from two
// primitives — unsigned varints and length-prefixed strings — wrapped in
// checksummed frames (see log.go), so the decoders below never trust a
// length without the frame checksum having passed first; limits here are
// only a second line of defense against reading a
// corrupt-but-checksum-colliding payload into a huge allocation.

var errCorrupt = errors.New("wal: corrupt record")

type encoder struct{ buf []byte }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errCorrupt
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a length that must leave at least min bytes per element in
// the remaining buffer — the allocation guard.
func (d *decoder) count(min int) int {
	v := d.uvarint()
	if d.err == nil && min > 0 && v > uint64(len(d.buf)/min) {
		d.fail()
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.count(1)
	if d.err != nil || n > len(d.buf) {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return errCorrupt
	}
	return nil
}

// encodeTables appends a batch of tables, cells as symbols of the store
// dictionary (0 = null). Table and column names are stored as raw strings:
// they are few, and keeping them out of the dictionary means cell symbol
// assignment depends only on cell values.
func encodeTables(e *encoder, tables []*table.Table, sym func(string) uint32) {
	e.uvarint(uint64(len(tables)))
	for _, t := range tables {
		e.str(t.Name)
		e.uvarint(uint64(len(t.Columns)))
		for _, c := range t.Columns {
			e.str(c)
		}
		e.uvarint(uint64(len(t.Rows)))
		for _, row := range t.Rows {
			for _, cell := range row {
				if cell.IsNull {
					e.uvarint(0)
				} else {
					e.uvarint(uint64(sym(cell.Val)))
				}
			}
		}
	}
}

// decodeTables is the inverse of encodeTables, resolving symbols through
// the replayed dictionary.
func decodeTables(d *decoder, dict *intern.Dict) []*table.Table {
	n := d.count(2)
	tables := make([]*table.Table, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		t := &table.Table{Name: d.str()}
		nc := d.count(1)
		for c := 0; c < nc && d.err == nil; c++ {
			t.Columns = append(t.Columns, d.str())
		}
		nr := d.count(nc)
		if nc == 0 && nr > 0 {
			d.fail()
			break
		}
		for r := 0; r < nr && d.err == nil; r++ {
			row := make(table.Row, nc)
			for c := 0; c < nc; c++ {
				sym := d.uvarint()
				switch {
				case d.err != nil:
				case sym == 0:
					row[c] = table.Null()
				case sym <= uint64(dict.Len()):
					row[c] = table.S(dict.Value(uint32(sym)))
				default:
					d.fail()
				}
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables
}

// checkTables validates decoded tables' structural invariants before they
// reach the session (Row width equals the column count by construction
// here, so only degenerate shapes need rejecting).
func checkTables(tables []*table.Table) error {
	for _, t := range tables {
		for _, row := range t.Rows {
			if len(row) != len(t.Columns) {
				return fmt.Errorf("wal: table %q: row width %d != %d columns", t.Name, len(row), len(t.Columns))
			}
		}
	}
	return nil
}
