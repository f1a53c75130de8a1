package table

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// referenceReadJSONL is the map-based JSONL parser ReadJSONLLimited
// replaced, kept as the oracle of FuzzReadJSONLMatchesReference: every line
// is decoded by encoding/json into a map of raw values, every value a
// second time into a string. It differs from the original in rejecting a
// line that reads null and in reading a null member as a null cell.
func referenceReadJSONL(r io.Reader, name string, lim JSONLLimits) (*Table, error) {
	maxLine := lim.MaxLineBytes
	if maxLine <= 0 {
		maxLine = defaultMaxLineBytes
	}
	sc := bufio.NewScanner(r)
	// Scanner's cap is max(maxLine, cap(buf)), so the initial buffer must
	// not exceed the limit or small limits would be silently ignored.
	sc.Buffer(make([]byte, 0, min(64*1024, maxLine)), maxLine)
	var rawRows []map[string]json.RawMessage
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if lim.MaxRows > 0 && len(rawRows) >= lim.MaxRows {
			return nil, fmt.Errorf("table: read jsonl %q line %d: row limit of %d exceeded", name, line, lim.MaxRows)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(text, &obj); err != nil {
			return nil, fmt.Errorf("table: read jsonl %q line %d: %w", name, line, err)
		}
		if obj == nil {
			return nil, fmt.Errorf("table: read jsonl %q line %d: %w", name, line, errNullLine)
		}
		rawRows = append(rawRows, obj)
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("table: read jsonl %q line %d: line exceeds %d bytes", name, line+1, maxLine)
		}
		return nil, fmt.Errorf("table: read jsonl %q line %d: %w", name, line+1, err)
	}

	t := New(name)
	colIdx := make(map[string]int)
	// First pass: collect schema deterministically (sorted within a row to
	// make column order stable despite Go's map iteration).
	for _, obj := range rawRows {
		for _, k := range sortedKeys(obj) {
			if _, ok := colIdx[k]; !ok {
				colIdx[k] = len(t.Columns)
				t.Columns = append(t.Columns, k)
			}
		}
	}
	for _, obj := range rawRows {
		row := make(Row, len(t.Columns))
		for i := range row {
			row[i] = Null()
		}
		for k, raw := range obj {
			if string(raw) == "null" {
				continue // a null member: its key is a column, its cell null
			}
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				s = string(raw) // numbers, booleans, nested values: raw JSON
			}
			row[colIdx[k]] = S(s)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	insertionSortStrings(keys)
	return keys
}

func insertionSortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
