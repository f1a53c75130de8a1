package table

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// WriteJSONL writes the table as JSON Lines: one object per row mapping
// column names to string values; null cells are omitted. JSONL is the
// interchange format downstream pipelines (and the fuzzyfd CLI's -json
// flag) consume. Rows are encoded by a RowEncoder, the one JSONL row
// encoding of the module.
func WriteJSONL(w io.Writer, t *Table) error {
	enc := NewRowEncoder(t.Columns)
	var buf []byte
	for i, row := range t.Rows {
		buf = enc.AppendRow(buf, row)
		if len(buf) >= 32<<10 || i == len(t.Rows)-1 {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("table: write jsonl %q row %d: %w", t.Name, i, err)
			}
			buf = buf[:0]
		}
	}
	return nil
}

// RowObject returns the JSONL object of one row as a map — column name to
// value, null cells omitted, the last non-null cell winning among columns
// of the same name. Encoding it with encoding/json gives exactly the line
// RowEncoder.AppendRow writes. Nothing in the module encodes with it: it is
// the reference tests compare RowEncoder against, and the benchmark harness
// keys result rows by it.
func RowObject(columns []string, row Row) map[string]string {
	obj := make(map[string]string, len(row))
	for c, cell := range row {
		if !cell.IsNull {
			obj[columns[c]] = cell.Val
		}
	}
	return obj
}

// RowEncoder writes rows of one column list as JSONL objects without
// reflection. Its bytes equal json.Encoder's over RowObject: keys in sorted
// order, null cells omitted, the last non-null cell of a repeated column
// name kept, strings escaped as encoding/json escapes them (HTML
// characters, U+2028 and U+2029, invalid UTF-8 replaced).
type RowEncoder struct {
	fields []jsonField
}

// jsonField is one distinct column name of a RowEncoder.
type jsonField struct {
	key  []byte // the quoted name and its colon
	cols []int  // the columns of that name, last first
}

// NewRowEncoder sorts and quotes the keys of columns once, for every row
// AppendRow writes afterwards.
func NewRowEncoder(columns []string) *RowEncoder {
	order := make([]int, len(columns))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(columns[a], columns[b]) })
	e := &RowEncoder{}
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && columns[order[j]] == columns[order[i]] {
			j++
		}
		cols := order[i:j:j]
		slices.Reverse(cols)
		e.fields = append(e.fields, jsonField{key: append(appendJSONString(nil, columns[cols[0]]), ':'), cols: cols})
		i = j
	}
	return e
}

// AppendRow appends row's JSONL object and its newline to dst. The row
// must be as wide as the encoder's column list.
func (e *RowEncoder) AppendRow(dst []byte, row Row) []byte {
	dst = append(dst, '{')
	first := true
	for _, f := range e.fields {
		for _, c := range f.cols {
			if row[c].IsNull {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, f.key...)
			dst = appendJSONString(dst, row[c].Val)
			break
		}
	}
	return append(dst, '}', '\n')
}

// appendJSONString appends s as a JSON string: copied between quotes when
// nothing in it needs escaping, through json.Marshal otherwise.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b < 0x20 || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
				return appendMarshaled(dst, s)
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
			return appendMarshaled(dst, s)
		}
		i += n
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendMarshaled(dst []byte, s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return append(dst, b...)
}

// JSONLLimits bounds a JSONL parse against hostile or accidental input.
// Zero values mean the defaults.
type JSONLLimits struct {
	// MaxLineBytes caps a single line. Lines past it fail with an error
	// naming the line number instead of buffering unboundedly. Default 4 MiB.
	MaxLineBytes int
	// MaxRows caps the number of rows parsed. Zero or negative means
	// unlimited.
	MaxRows int
}

// defaultMaxLineBytes keeps a single pathological row from buffering
// arbitrarily much memory while staying far above any realistic row.
const defaultMaxLineBytes = 4 << 20

// errNullLine rejects a line reading null: encoding/json decodes it into a
// nil map without error, but it is no row.
var errNullLine = errors.New("line is null, not a JSON object")

// ReadJSONL parses a JSON Lines stream into a table with the default
// limits. Every non-blank line must be a JSON object. The schema is the
// union of all keys, each row's keys sorted and added in order of first
// appearance; missing keys become null cells, and a key repeated within a
// line keeps its last value. Non-string JSON values are rendered with their
// default JSON encoding. Errors name the 1-based offending line.
//
// A line that is a flat object of strings without control bytes is split
// without encoding/json: its values are decoded back to back into one
// string, and its cells are substrings of that string. Every other line is
// decoded by encoding/json, with the same result and the same error text.
func ReadJSONL(r io.Reader, name string) (*Table, error) {
	return ReadJSONLLimited(r, name, JSONLLimits{})
}

// ReadJSONLLimited is ReadJSONL with explicit parse limits.
func ReadJSONLLimited(r io.Reader, name string, lim JSONLLimits) (*Table, error) {
	maxLine := lim.MaxLineBytes
	if maxLine <= 0 {
		maxLine = defaultMaxLineBytes
	}
	sc := bufio.NewScanner(r)
	// Scanner's cap is max(maxLine, cap(buf)), so the initial buffer must
	// not exceed the limit or small limits would be silently ignored.
	sc.Buffer(make([]byte, 0, min(4<<10, maxLine)), maxLine)
	p := jsonlParser{colIdx: make(map[string]int)}
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if lim.MaxRows > 0 && len(p.ends) >= lim.MaxRows {
			return nil, fmt.Errorf("table: read jsonl %q line %d: row limit of %d exceeded", name, line, lim.MaxRows)
		}
		if err := p.addLine(text); err != nil {
			return nil, fmt.Errorf("table: read jsonl %q line %d: %w", name, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("table: read jsonl %q line %d: line exceeds %d bytes", name, line+1, maxLine)
		}
		return nil, fmt.Errorf("table: read jsonl %q line %d: %w", name, line+1, err)
	}
	return p.table(name), nil
}

// jsonlParser accumulates a JSONL stream's rows as (column, value) entries;
// the rows are laid out once the stream ends and the width is known.
type jsonlParser struct {
	colIdx     map[string]int
	columns    []string
	cells      []jsonCell // every row's entries, in line order
	ends       []int      // row i's entries end at cells[ends[i]]
	keys, vals []string   // the current line's members
	vbuf       []byte     // the current line's values, back to back
	kbuf       []byte     // the current member's decoded key
	vends      []int      // value i ends at vbuf[vends[i]]
}

type jsonCell struct {
	col int
	val string
}

// addLine parses one trimmed, non-blank line into a row.
func (p *jsonlParser) addLine(text []byte) error {
	if !p.splitFlat(text) {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(text, &obj); err != nil {
			return err
		}
		if obj == nil {
			return errNullLine
		}
		p.keys, p.vals = p.keys[:0], p.vals[:0]
		var nulls []string
		for k, raw := range obj {
			if string(raw) == "null" {
				nulls = append(nulls, k)
				continue
			}
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				s = string(raw) // numbers, booleans, nested values: raw JSON
			}
			p.keys = append(p.keys, k)
			p.vals = append(p.vals, s)
		}
		p.keys = append(p.keys, nulls...)
	}
	p.addRow()
	return nil
}

// addRow appends the scratch keys and values as one row, first adding the
// row's unseen keys to the schema in sorted order. Keys past the last value
// are members that read null: they enter the schema, and their cells stay
// null.
func (p *jsonlParser) addRow() {
	var fresh []string
	for _, k := range p.keys {
		if _, ok := p.colIdx[k]; !ok {
			fresh = append(fresh, k)
		}
	}
	if fresh != nil {
		slices.Sort(fresh)
		for _, k := range slices.Compact(fresh) {
			p.colIdx[k] = len(p.columns)
			p.columns = append(p.columns, k)
		}
	}
	for i, v := range p.vals {
		p.cells = append(p.cells, jsonCell{p.colIdx[p.keys[i]], v})
	}
	p.ends = append(p.ends, len(p.cells))
}

// table lays the parsed rows out over one backing array of cells. Entries
// are applied in line order, so a repeated key keeps its last value.
func (p *jsonlParser) table(name string) *Table {
	t := New(name, p.columns...)
	w := len(t.Columns)
	if len(p.ends) == 0 {
		return t
	}
	cells := make([]Cell, len(p.ends)*w)
	for i := range cells {
		cells[i].IsNull = true
	}
	t.Rows = make([]Row, len(p.ends))
	start := 0
	for i, end := range p.ends {
		row := Row(cells[i*w : (i+1)*w : (i+1)*w])
		for _, c := range p.cells[start:end] {
			row[c.col] = S(c.val)
		}
		t.Rows[i] = row
		start = end
	}
	return t
}

// splitFlat splits the trimmed line text into the scratch keys and values
// when it is a flat JSON object whose keys and values are all strings free
// of control bytes, decoding their escape sequences. The values are
// substrings of one string holding them back to back, so a row costs one
// allocation and keeps none of the line's syntax alive; a key already in
// the schema reuses its column's name. It reports false for anything else —
// other values, nesting, malformed escapes, invalid UTF-8, malformed JSON —
// which the caller hands to encoding/json.
func (p *jsonlParser) splitFlat(text []byte) bool {
	p.keys, p.vals, p.vbuf, p.vends = p.keys[:0], p.vals[:0], p.vbuf[:0], p.vends[:0]
	if len(text) < 2 || text[0] != '{' {
		return false
	}
	i := skipJSONSpace(text, 1) // text ends in a non-space, so i < len(text)
	if text[i] == '}' {
		return i == len(text)-1
	}
	for {
		var next int
		var ok bool
		if p.kbuf, next, ok = appendUnquoted(p.kbuf[:0], text, i); !ok {
			return false
		}
		if i = skipJSONSpace(text, next); i == len(text) || text[i] != ':' {
			return false
		}
		if p.vbuf, next, ok = appendUnquoted(p.vbuf, text, skipJSONSpace(text, i+1)); !ok {
			return false
		}
		p.keys = append(p.keys, p.key(p.kbuf))
		p.vends = append(p.vends, len(p.vbuf))
		switch i = skipJSONSpace(text, next); {
		case i == len(text):
			return false
		case text[i] == ',':
			i = skipJSONSpace(text, i+1)
		case text[i] == '}':
			if i != len(text)-1 || !utf8.Valid(text) {
				return false
			}
			vals, start := string(p.vbuf), 0
			for _, end := range p.vends {
				p.vals = append(p.vals, vals[start:end])
				start = end
			}
			return true
		default:
			return false
		}
	}
}

// key returns k as a string, the column's own name when k is already in the
// schema.
func (p *jsonlParser) key(k []byte) string {
	if c, ok := p.colIdx[string(k)]; ok {
		return p.columns[c]
	}
	return string(k)
}

// appendUnquoted appends the contents of the JSON string opening at
// text[i] to dst and returns the index after its closing quote. Escape
// sequences decode as encoding/json decodes them: a surrogate that is not
// half of a \u-escaped pair reads U+FFFD. It reports false if there is no
// string at i, or it holds a control byte or a malformed escape.
func appendUnquoted(dst, text []byte, i int) ([]byte, int, bool) {
	if i == len(text) || text[i] != '"' {
		return dst, 0, false
	}
	i++
	start := i
	for i < len(text) {
		switch c := text[i]; {
		case c == '"':
			return append(dst, text[start:i]...), i + 1, true
		case c < 0x20:
			return dst, 0, false
		case c != '\\':
			i++
			continue
		}
		dst = append(dst, text[start:i]...)
		if i+1 == len(text) {
			return dst, 0, false
		}
		switch e := text[i+1]; e {
		case '"', '\\', '/':
			dst = append(dst, e)
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := hexEscape(text, i)
			if r < 0 {
				return dst, 0, false
			}
			i += 6
			if utf16.IsSurrogate(r) {
				r = utf16.DecodeRune(r, hexEscape(text, i))
				if r != utf8.RuneError {
					i += 6
				}
			}
			dst = utf8.AppendRune(dst, r)
			start = i
			continue
		default:
			return dst, 0, false
		}
		i += 2
		start = i
	}
	return dst, 0, false
}

// hexEscape returns the code unit of the \uXXXX escape at text[i], or -1
// if there is none.
func hexEscape(text []byte, i int) rune {
	if len(text) < i+6 || text[i] != '\\' || text[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range text[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

func skipJSONSpace(text []byte, i int) int {
	for i < len(text) && (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' || text[i] == '\r') {
		i++
	}
	return i
}
