package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fuzzyfd"
	"fuzzyfd/internal/table"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func doReq(t *testing.T, method, url, body string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func createSession(t *testing.T, ts *httptest.Server, name, opts string) {
	t.Helper()
	resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/sessions/"+name, opts, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d: %s", name, resp.StatusCode, body)
	}
}

// postTableErr adds one table; safe to call from helper goroutines.
func postTableErr(ts *httptest.Server, session, tableName, jsonl string) (map[string]any, error) {
	req, err := http.NewRequest(http.MethodPost,
		fmt.Sprintf("%s/v1/sessions/%s/tables?table=%s", ts.URL, session, tableName),
		strings.NewReader(jsonl))
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("post table %s: status %d: %s", tableName, resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("post table %s: %w", tableName, err)
	}
	return out, nil
}

func postTable(t *testing.T, ts *httptest.Server, session, tableName, jsonl string) map[string]any {
	t.Helper()
	out, err := postTableErr(ts, session, tableName, jsonl)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sortedJSONLLines splits a JSONL payload into sorted lines.
func sortedJSONLLines(data []byte) []string {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 1 && lines[0] == "" {
		return nil
	}
	sort.Strings(lines)
	return lines
}

// TestServerLifecycle: create (idempotent), get, list, delete, and the 404s.
func TestServerLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts, "alpha", `{"equi": true}`)

	resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/sessions/alpha", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-create: status %d, want 200", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/sessions/beta", `{"bogus": 1}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad options: status %d, want 400", resp.StatusCode)
	}

	postTable(t, ts, "alpha", "people", `{"id":"1","name":"alice"}`+"\n"+`{"id":"2","name":"bob"}`)

	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/alpha", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get session: status %d", resp.StatusCode)
	}
	var inf sessionInfo
	if err := json.Unmarshal(body, &inf); err != nil {
		t.Fatal(err)
	}
	if inf.Tables != 1 || inf.Integrations != 1 || inf.Rows != 2 {
		t.Fatalf("session info = %+v, want 1 table, 1 integration, 2 rows", inf)
	}
	// The memory estimate a -memory-budget is sized against is reported
	// without a budget too.
	if inf.MemoryBytes <= 0 || !bytes.Contains(body, []byte(`"memory_bytes":`)) {
		t.Fatalf("session info %s: want a positive memory_bytes", body)
	}

	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/sessions", "", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"alpha"`)) {
		t.Fatalf("list sessions: status %d body %s", resp.StatusCode, body)
	}

	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/sessions/alpha", "", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/sessions/alpha", "", nil)
	if eb := decodeErrorBody(t, body); resp.StatusCode != http.StatusNotFound || eb.Code != "no_session" || eb.RequestID == "" {
		t.Fatalf("get after delete: status %d body %s, want 404 no_session with a request id", resp.StatusCode, body)
	}
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/sessions/alpha"},
		{http.MethodDelete, "/v1/sessions/alpha"},
		{http.MethodPost, "/v1/sessions/alpha/tables"},
		{http.MethodGet, "/v1/sessions/alpha/result"},
		{http.MethodGet, "/v1/sessions/alpha/events"},
	} {
		resp, _ = doReq(t, probe.method, ts.URL+probe.path, "", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s after delete: status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestServerRejectsOutOfRangeOptions: a session option outside its range is
// a 400 and creates no session, for a negative memory budget as for a
// threshold outside (0, 1] — and so are "workers", the FD worker count the
// closure now takes from GOMAXPROCS, and "budget", the tuple ceiling the
// memory budget replaced, which no session option names.
func TestServerRejectsOutOfRangeOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, opts := range []string{
		`{"threshold": 1.5}`,
		`{"workers": 4}`,
		`{"memory_budget": -1}`,
		`{"equi": true, "budget": 5}`,
	} {
		resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/sessions/bad", opts, nil)
		if resp.StatusCode != http.StatusBadRequest || decodeErrorBody(t, body).Code != "bad_options" {
			t.Errorf("%s: status %d, want 400 bad_options: %s", opts, resp.StatusCode, body)
		}
		if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/bad", "", nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: session created (status %d)", opts, resp.StatusCode)
		}
	}
}

// TestServerResult: the equi integration of two tiny tables, both as a
// materialized JSON document and as streamed JSON Lines.
func TestServerResult(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts, "res", `{"equi": true}`)
	postTable(t, ts, "res", "people", `{"id":"1","name":"alice"}`+"\n"+`{"id":"2","name":"bob"}`)
	postTable(t, ts, "res", "cities", `{"id":"1","city":"oslo"}`)

	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/res/result", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		Columns []string            `json:"columns"`
		Rows    []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rows) != 2 {
		t.Fatalf("materialized result has %d rows, want 2: %s", len(doc.Rows), body)
	}

	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/sessions/res/result", "",
		map[string]string{"Accept": "application/jsonl"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jsonl result: status %d: %s", resp.StatusCode, body)
	}
	lines := sortedJSONLLines(body)
	if len(lines) != 2 {
		t.Fatalf("streamed result has %d rows, want 2: %s", len(lines), body)
	}
	if !strings.Contains(lines[0], `"city":"oslo"`) || !strings.Contains(lines[0], `"name":"alice"`) {
		t.Fatalf("joined row missing: %v", lines)
	}
}

// TestServerCoalescing: N concurrent adds to one session execute far fewer
// integrations — one in flight plus one for everything that piled up — and
// the final stream is byte-identical (as a sorted line multiset) to a
// one-shot oracle over the same tables.
func TestServerCoalescing(t *testing.T) {
	const n = 8
	srv, ts := newTestServer(t, Config{})
	createSession(t, ts, "co", `{"equi": true}`)

	var once sync.Once
	blocked := make(chan struct{})
	release := make(chan struct{})
	srv.setIntegrateHook(func(string) {
		once.Do(func() {
			close(blocked)
			<-release
		})
	})

	bodies := make([]string, n)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"id":"k%d","v%d":"x"}`, i, i)
	}
	var wg sync.WaitGroup
	addErrs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := postTableErr(ts, "co", fmt.Sprintf("t%d", i), bodies[i]); err != nil {
				addErrs <- err
			}
		}(i)
	}
	<-blocked
	// Wait until the remaining adds have piled into the accumulating flight.
	c := srv.reg.get("co")
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.bat.mu.Lock()
		pending := 0
		if c.bat.cur != nil {
			pending = len(c.bat.cur.tables)
		}
		c.bat.mu.Unlock()
		if pending == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d adds pending before release", pending)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(addErrs)
	for err := range addErrs {
		t.Fatal(err)
	}

	if got := c.sess.Integrations(); got != 2 {
		t.Fatalf("%d concurrent adds ran %d integrations, want 2", n, got)
	}

	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/co/result", "",
		map[string]string{"Accept": "application/jsonl"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	got := sortedJSONLLines(body)

	var tables []*fuzzyfd.Table
	for i, b := range bodies {
		tbl, err := fuzzyfd.ReadJSONL(strings.NewReader(b), fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	res, err := fuzzyfd.Integrate(tables, fuzzyfd.WithEquiJoin())
	if err != nil {
		t.Fatal(err)
	}
	var oracle bytes.Buffer
	if err := fuzzyfd.WriteJSONL(&oracle, res.Table); err != nil {
		t.Fatal(err)
	}
	want := sortedJSONLLines(oracle.Bytes())
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("coalesced result differs from oracle:\ngot  %v\nwant %v", got, want)
	}
}

// TestServerStreamMatchesReferenceEncoding pins the JSON Lines result
// stream, byte for byte, to encoding/json over table.RowObject of the
// session's last result, computed here rather than by the encoder the
// server uses, and the JSON form to json.Encoder over the document of those
// row maps, columns and stats. The values and column names need every escape class
// (quote, backslash, control bytes, HTML characters, U+2028/U+2029,
// invalid UTF-8), beside plain ASCII and non-ASCII ones, and the rows span
// several flushes of the stream.
func TestServerStreamMatchesReferenceEncoding(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createSession(t, ts, "esc", `{"equi": true}`)
	values := []string{
		"plain", `quote "`, `backslash \ slash /`, "ctl \x01", "ctl \x1f", "tab\t", "nl\n", "cr\r",
		"a<b", "a>b", "a&b", "ls\u2028", "ps\u2029", "Zürich 東京 \x7f", "",
	}
	var body strings.Builder
	for i := range 300 {
		obj := map[string]string{"id": fmt.Sprint(i), "v": values[i%len(values)]}
		if i%5 == 0 {
			obj[`<q"k>`] = values[(i/5)%len(values)]
		}
		line, err := json.Marshal(obj)
		if err != nil {
			t.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	body.WriteString("{\"id\":\"bad\",\"v\":\"\xff\xfe\"}\n") // invalid UTF-8, read as U+FFFD
	postTable(t, ts, "esc", "t1", body.String())

	resp, got := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/esc/result", "",
		map[string]string{"Accept": "application/jsonl"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", resp.StatusCode, got)
	}
	c := srv.reg.get("esc")
	if c == nil {
		t.Fatal("session esc is not live")
	}
	last := c.sess.Last().Table
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, row := range last.Rows {
		if err := enc.Encode(table.RowObject(last.Columns, row)); err != nil {
			t.Fatal(err)
		}
	}
	if len(last.Rows) != 301 || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("stream of %d rows differs from the reference encoding:\ngot  %q\nwant %q", len(last.Rows), got, want.Bytes())
	}

	// The JSON form is the document json.Encoder writes over one map per
	// row.
	resp, got = doReq(t, http.MethodGet, ts.URL+"/v1/sessions/esc/result", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json result: status %d: %s", resp.StatusCode, got)
	}
	rows := []map[string]string{}
	for _, row := range last.Rows {
		rows = append(rows, table.RowObject(last.Columns, row))
	}
	want.Reset()
	if err := enc.Encode(map[string]any{"columns": last.Columns, "rows": rows, "stats": c.sess.Last().FDStats}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("JSON document differs from the reference encoding:\ngot  %q\nwant %q", got, want.Bytes())
	}
}

// TestServerRejectsNullTable: a body line reading null is no row, so the
// add answers 400 bad_jsonl naming the line and the session gains no
// table.
func TestServerRejectsNullTable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts, "nul", `{"equi": true}`)
	for _, b := range []string{"null", `{"a":"1"}` + "\nnull"} {
		resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/sessions/nul/tables?table=t1", b, nil)
		var eb errorBody
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &eb) != nil || eb.Code != "bad_jsonl" {
			t.Fatalf("body %q: status %d (%s), want 400 bad_jsonl", b, resp.StatusCode, body)
		}
		if want := fmt.Sprintf("line %d", strings.Count(b, "\n")+1); !strings.Contains(eb.Error, want) {
			t.Fatalf("body %q: error %q does not name %s", b, eb.Error, want)
		}
	}
	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/nul", "", nil)
	var st struct {
		Tables int `json:"tables"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &st) != nil || st.Tables != 0 {
		t.Fatalf("session after rejected adds: status %d: %s, want 0 tables", resp.StatusCode, body)
	}
}

// TestServerSSE: a subscriber connected before an add sees the
// integration's progress events live and in order — align completes before
// fd, and fd component events precede fd completion.
func TestServerSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts, "sse", `{"equi": true}`)

	resp, err := http.Get(ts.URL + "/v1/sessions/sse/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}

	type event struct {
		Phase         string `json:"phase"`
		Done          bool   `json:"done"`
		Component     int    `json:"component"`
		ClosureTuples int    `json:"closure_tuples"`
	}
	events := make(chan event, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev event
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil {
				events <- ev
			}
		}
		close(events)
	}()

	postTable(t, ts, "sse", "people", `{"id":"1","name":"alice"}`+"\n"+`{"id":"2","name":"bob"}`)

	var seen []event
	timeout := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("event stream closed early; saw %+v", seen)
			}
			seen = append(seen, ev)
			if ev.Phase == "fd" && ev.Done {
				goto collected
			}
		case <-timeout:
			t.Fatalf("no fd completion event; saw %+v", seen)
		}
	}
collected:
	alignDone, componentAt := -1, -1
	for i, ev := range seen {
		if ev.Phase == "align" && ev.Done && alignDone < 0 {
			alignDone = i
		}
		if ev.Phase == "fd" && ev.Component > 0 && componentAt < 0 {
			componentAt = i
		}
	}
	fdDone := len(seen) - 1
	if alignDone < 0 || alignDone > fdDone {
		t.Fatalf("align completion out of order: %+v", seen)
	}
	if componentAt < 0 || componentAt > fdDone {
		t.Fatalf("fd component events out of order: %+v", seen)
	}
}

// TestServerDrain: a drain lets the in-flight add finish, rejects new
// state-changing requests with 503, and returns once the flight lands.
func TestServerDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createSession(t, ts, "dr", `{"equi": true}`)

	var once sync.Once
	blocked := make(chan struct{})
	release := make(chan struct{})
	srv.setIntegrateHook(func(string) {
		once.Do(func() {
			close(blocked)
			<-release
		})
	})

	type addResult struct {
		out map[string]any
		err error
	}
	firstDone := make(chan addResult, 1)
	go func() {
		out, err := postTableErr(ts, "dr", "t1", `{"id":"1","a":"x"}`)
		firstDone <- addResult{out, err}
	}()
	<-blocked

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()

	// Drain becomes observable: health flips to 503.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := doReq(t, http.MethodGet, ts.URL+"/healthz", "", nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health never reported draining")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/sessions/dr/tables", `{"id":"2","a":"y"}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("add while draining: status %d, want 503", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/sessions/new", "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: status %d, want 503", resp.StatusCode)
	}

	close(release)
	first := <-firstDone
	if first.err != nil {
		t.Fatal(first.err)
	}
	if first.out["rows"].(float64) != 1 {
		t.Fatalf("in-flight add result = %v", first.out)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServerDrainDeadline: a drain that cannot finish before its context
// expires reports the deadline instead of hanging.
func TestServerDrainDeadline(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createSession(t, ts, "dd", `{"equi": true}`)

	var once sync.Once
	blocked := make(chan struct{})
	release := make(chan struct{})
	srv.setIntegrateHook(func(string) {
		once.Do(func() {
			close(blocked)
			<-release
		})
	})
	go postTableErr(ts, "dd", "t1", `{"id":"1","a":"x"}`)
	<-blocked

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("drain returned nil with a flight still blocked")
	}
	close(release)
}

// TestServerIdleEviction: an idle session is evicted by the janitor, its
// labeled series retired, and the gauges reflect the departure.
func TestServerIdleEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{IdleTTL: 30 * time.Millisecond})
	createSession(t, ts, "ev", `{"equi": true}`)
	postTable(t, ts, "ev", "t1", `{"id":"1","a":"x"}`)

	// Poll the scrape-time gauge: a GET on the session itself would count
	// as use and keep it alive forever.
	var text string
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := doReq(t, http.MethodGet, ts.URL+"/metrics", "", nil)
		text = string(body)
		if strings.Contains(text, "fuzzyfdd_sessions 0") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/ev", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still served: %d", resp.StatusCode)
	}
	if !strings.Contains(text, "fuzzyfdd_sessions 0") {
		t.Fatalf("sessions gauge not zero after eviction:\n%s", text)
	}
	if !strings.Contains(text, "fuzzyfdd_sessions_evicted_total 1") {
		t.Fatalf("eviction not counted:\n%s", text)
	}
	if strings.Contains(text, `session="ev"`) {
		t.Fatalf("evicted session's series not retired:\n%s", text)
	}
}

// TestServerMetrics: the exposition carries the session gauges, per-session
// counters, and phase timings after real integrations.
func TestServerMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts, "met", `{"equi": true}`)
	postTable(t, ts, "met", "people", `{"id":"1","name":"alice"}`+"\n"+`{"id":"2","name":"bob"}`)
	postTable(t, ts, "met", "cities", `{"id":"1","city":"oslo"}`)
	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/met/result", "",
		map[string]string{"Accept": "application/jsonl"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}

	_, body = doReq(t, http.MethodGet, ts.URL+"/metrics", "", nil)
	text := string(body)
	for _, want := range []string{
		"fuzzyfdd_sessions 1",
		"fuzzyfdd_sessions_created_total 1",
		`fuzzyfdd_add_requests_total{session="met"} 2`,
		`fuzzyfdd_integrations_total{session="met"} 2`,
		`fuzzyfdd_session_rows{session="met"} 2`,
		`fuzzyfdd_result_rows_streamed_total{session="met"} 2`,
		`fuzzyfdd_phase_runs_total{phase="fd"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServerLimits: the session cap returns 429, and a server-wide memory
// budget surfaces as 422 with the error counted.
func TestServerLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})
	createSession(t, ts, "one", `{"equi": true}`)
	resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/sessions/two", "", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap create: status %d, want 429", resp.StatusCode)
	}

	_, ts2 := newTestServer(t, Config{MemoryBudget: 1})
	createSession(t, ts2, "tiny", `{"equi": true}`)
	resp, body := doReq(t, http.MethodPost, ts2.URL+"/v1/sessions/tiny/tables?table=t1",
		`{"id":"1","a":"x"}`+"\n"+`{"id":"2","a":"y"}`, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("budget blowup: status %d (%s), want 422", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "memory_budget" || eb.Error != "integrate: core: fd: memory budget exceeded" {
		t.Fatalf("budget blowup body %s (%v), want code memory_budget naming the fd phase once", body, err)
	}
	_, body = doReq(t, http.MethodGet, ts2.URL+"/metrics", "", nil)
	if !strings.Contains(string(body), `fuzzyfdd_integration_errors_total{session="tiny"} 1`) {
		t.Fatalf("integration error not counted:\n%s", body)
	}
}

// TestServerStreamBudgetError: a result read after an add that blew the
// memory budget answers the budget error in both forms — JSON Lines and
// JSON — whether or not an earlier add had succeeded, never the stale state
// nor a complete-looking 200 carrying the rows buffered so far. Component
// "a" closes before the "b" component blows the budget.
func TestServerStreamBudgetError(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	const t0 = `{"k":"c","v":"9"}`
	const t1 = `{"k":"a","w":"0"}` + "\n" + `{"k":"b","x":"1"}` + "\n" + `{"k":"b","y":"2"}` + "\n" + `{"k":"b","z":"3"}`
	for _, name := range []string{"fresh", "grown"} {
		// The ceiling is one byte under the whole closure's estimate, read
		// off a twin session under a budget nothing reaches: "a" adds no
		// tuple and closes within it, "b"'s merges cross it.
		twin := name + "-twin"
		createSession(t, ts, twin, `{"equi":true,"memory_budget":4611686018427387904}`)
		if name == "grown" {
			postTable(t, ts, twin, "t0", t0)
		}
		postTable(t, ts, twin, "t1", t1)
		ceiling := srv.reg.get(twin).sess.Stats().MemoryBytes - 1
		createSession(t, ts, name, fmt.Sprintf(`{"equi":true,"memory_budget":%d}`, ceiling))
		if name == "grown" {
			resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/sessions/grown/tables?table=t0", t0, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("first add: status %d (%s)", resp.StatusCode, body)
			}
		}
		resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/sessions/"+name+"/tables?table=t1", t1, nil)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s add: status %d (%s), want 422", name, resp.StatusCode, body)
		}
		for _, accept := range []string{"application/jsonl", "application/json"} {
			resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/sessions/"+name+"/result", "",
				map[string]string{"Accept": accept})
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("%s %s result: status %d (%s), want 422", name, accept, resp.StatusCode, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "memory_budget" {
				t.Fatalf("%s %s result: error body %s (%v), want code memory_budget", name, accept, body, err)
			}
		}
	}
}
