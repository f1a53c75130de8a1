package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fuzzyfd/internal/wal"
)

// resultJSON fetches the session's integrated result in JSON mode.
func resultJSON(t *testing.T, ts *httptest.Server, session string) map[string]any {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/"+session+"/result", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// A durable server restarted on the same data directory serves the same
// result without the session ever being re-created — it is lazily reopened
// on the first request, and the reopen is counted.
func TestServerRestartServesSameResult(t *testing.T) {
	dir := t.TempDir()

	srv1 := New(Config{DataDir: dir})
	ts1 := httptest.NewServer(srv1)
	createSession(t, ts1, "orders", `{"equi": true}`)
	postTable(t, ts1, "orders", "people", `{"name":"alice","city":"Berlin"}
{"name":"bob","city":"Paris"}`)
	postTable(t, ts1, "orders", "jobs", `{"name":"alice","job":"eng"}
{"name":"carol","job":"ops"}`)
	want := resultJSON(t, ts1, "orders")
	if err := srv1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Close()

	srv2 := New(Config{DataDir: dir})
	ts2 := httptest.NewServer(srv2)
	defer func() { ts2.Close(); srv2.Close() }()

	// No PUT: the session must come back from disk.
	resp, body := doReq(t, http.MethodGet, ts2.URL+"/v1/sessions/orders", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get after restart: status %d: %s", resp.StatusCode, body)
	}
	got := resultJSON(t, ts2, "orders")
	if !reflect.DeepEqual(got["rows"], want["rows"]) || !reflect.DeepEqual(got["columns"], want["columns"]) {
		t.Fatalf("restarted result diverges:\ngot  %v\nwant %v", got, want)
	}
	resp, body = doReq(t, http.MethodGet, ts2.URL+"/metrics", "", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "fuzzyfdd_sessions_reopened_total 1") {
		t.Errorf("reopen not counted in metrics:\n%s", body)
	}

	// The reopened session keeps accepting tables.
	postTable(t, ts2, "orders", "ages", `{"name":"bob","age":"41"}`)

	// DELETE removes the on-disk state for good: after another restart the
	// session is gone.
	resp, body = doReq(t, http.MethodDelete, ts2.URL+"/v1/sessions/orders", "", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	if _, err := os.Stat(filepath.Join(dir, "orders")); !os.IsNotExist(err) {
		t.Fatalf("session directory survived DELETE: %v", err)
	}
	resp, _ = doReq(t, http.MethodGet, ts2.URL+"/v1/sessions/orders", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
	}
}

// restartWith drains and closes a durable server and starts another on the
// same data directory.
func restartWith(t *testing.T, srv *Server, ts *httptest.Server, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv.Close()
	srv2, ts2 := newTestServer(t, cfg)
	return srv2, ts2
}

// A PUT naming a durable session that is on disk but not live — after a
// restart — reopens that session with its recorded options: it answers
// 200, not 201, and neither the result nor a byte of its log changes.
// (Created with the request's empty options, the session would integrate
// fuzzily and merge Berlin with Berlinn.)
func TestServerPutReopensDurableSession(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := newTestServer(t, Config{DataDir: dir})
	createSession(t, ts1, "cities", `{"equi": true}`)
	postTable(t, ts1, "cities", "t1", `{"city":"Berlin","country":"Germany"}`)
	postTable(t, ts1, "cities", "t2", `{"city":"Berlinn","rate":"63%"}`)
	want := resultJSON(t, ts1, "cities")
	logPath := filepath.Join(dir, "cities", "wal-0.log")
	wantLog, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	_, ts2 := restartWith(t, srv1, ts1, Config{DataDir: dir})
	resp, body := doReq(t, http.MethodPut, ts2.URL+"/v1/sessions/cities", `{}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT after restart: status %d (%s), want 200", resp.StatusCode, body)
	}
	if got := resultJSON(t, ts2, "cities"); !reflect.DeepEqual(got["rows"], want["rows"]) || !reflect.DeepEqual(got["columns"], want["columns"]) {
		t.Fatalf("PUT after restart changed the result:\ngot  %v\nwant %v", got, want)
	}
	if got, err := os.ReadFile(logPath); err != nil || !slices.Equal(got, wantLog) {
		t.Fatalf("PUT after restart changed wal-0.log (%v)", err)
	}
	_, body = doReq(t, http.MethodGet, ts2.URL+"/metrics", "", nil)
	if !strings.Contains(string(body), "fuzzyfdd_sessions_reopened_total 1") {
		t.Errorf("reopen not counted in metrics:\n%s", body)
	}
}

// A log whose options frame still holds "workers" — the FD worker count
// sessions could set before the closure took it from GOMAXPROCS — reopens
// and integrates: the reopen ignores the field the options no longer have.
func TestServerReopensOptionsWithWorkers(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	if err := wal.WriteMeta(filepath.Join(dir, "old"), wal.OSFS{}, []byte(`{"equi":true,"workers":4}`)); err != nil {
		t.Fatal(err)
	}
	postTable(t, ts, "old", "people", `{"name":"alice","city":"Berlin"}`)
	postTable(t, ts, "old", "jobs", `{"name":"alice","job":"eng"}
{"name":"bob","job":"ops"}`)
	if rows := resultJSON(t, ts, "old")["rows"].([]any); len(rows) != 2 {
		t.Fatalf("reopened session integrated %d rows, want 2: %v", len(rows), rows)
	}
}

// legacyLayouts returns, by session name, the files of two directories
// earlier versions wrote, by path relative to the directory: a copy of
// internal/wal/testdata/snapshot-layout (CURRENT, snap-1/ and wal-1.log)
// with the session.json its server wrote beside it, and log, a log of adds
// with no options frame, beside the session.json servers wrote before
// options became the log's first frame.
func legacyLayouts(t *testing.T, log []byte) map[string]map[string][]byte {
	t.Helper()
	options := []byte(`{"equi":true}` + "\n")
	snapshot := map[string][]byte{"session.json": options}
	src := filepath.Join("..", "wal", "testdata", "snapshot-layout")
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		snapshot[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]map[string][]byte{
		"snapshot":     snapshot,
		"options-file": {"wal-0.log": log, "session.json": options},
	}
}

// treeFS returns every file under name on fs by path, with its bytes, and
// every directory with nil.
func treeFS(t *testing.T, fs wal.FS, name string) map[string][]byte {
	t.Helper()
	names, err := fs.ReadDir(name)
	if err != nil { // a file
		return map[string][]byte{name: readFS(t, fs, name)}
	}
	out := map[string][]byte{name: nil}
	for _, n := range names {
		maps.Copy(out, treeFS(t, fs, filepath.Join(name, n)))
	}
	return out
}

// A session directory in a layout earlier versions wrote is refused, on
// the operating system's filesystem as on a MemFS: GET and PUT answer 500
// open_failed naming its first entry other than wal-0.log — CURRENT in the
// snapshot layout, session.json beside a log with no options frame — and
// leave every entry and byte as they were; the name never opens empty.
// DELETE then removes the directory, and a PUT creates the name afresh
// with no tables.
func TestServerRefusesLegacyLayouts(t *testing.T) {
	for _, fsName := range []string{"os", "mem"} {
		t.Run(fsName, func(t *testing.T) {
			dir := t.TempDir()
			var fs wal.FS = wal.OSFS{}
			plant := func(name string, data []byte) {
				if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(name, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if fsName == "mem" {
				mem := wal.NewMemFS()
				fs = mem
				plant = func(name string, data []byte) { plantFS(t, mem, name, data) }
			}
			_, ts := newTestServer(t, Config{DataDir: dir, WALFS: fs})
			createSession(t, ts, "seed", `{"equi": true}`)
			postTable(t, ts, "seed", "people", `{"name":"alice","city":"Berlin"}`)
			log := readFS(t, fs, filepath.Join(dir, "seed", "wal-0.log"))
			first := 8 + int(binary.LittleEndian.Uint32(log))

			for name, files := range legacyLayouts(t, log[first:]) {
				for rel, data := range files {
					plant(filepath.Join(dir, name, rel), data)
				}
				entry := "CURRENT"
				if name == "options-file" {
					entry = "session.json"
				}
				want := treeFS(t, fs, filepath.Join(dir, name))
				for _, method := range []string{http.MethodGet, http.MethodPut} {
					resp, body := doReq(t, method, ts.URL+"/v1/sessions/"+name, `{"equi": true}`, nil)
					var eb errorBody
					json.Unmarshal(body, &eb)
					if resp.StatusCode != http.StatusInternalServerError || eb.Code != "open_failed" || !strings.Contains(eb.Error, entry) {
						t.Fatalf("%s %s: status %d body %s, want 500 open_failed naming %s", method, name, resp.StatusCode, body, entry)
					}
					if got := treeFS(t, fs, filepath.Join(dir, name)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s changed the directory:\ngot  %q\nwant %q", method, name, got, want)
					}
				}
				if resp, body := doReq(t, http.MethodDelete, ts.URL+"/v1/sessions/"+name, "", nil); resp.StatusCode != http.StatusNoContent {
					t.Fatalf("DELETE %s: status %d: %s", name, resp.StatusCode, body)
				}
				if _, err := fs.Stat(filepath.Join(dir, name)); err == nil {
					t.Fatalf("DELETE %s left its directory", name)
				}
				resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/sessions/"+name, `{"equi": true}`, nil)
				if resp.StatusCode != http.StatusCreated || !strings.Contains(string(body), `"tables":0`) {
					t.Fatalf("PUT %s after DELETE: status %d: %s, want 201 with no tables", name, resp.StatusCode, body)
				}
			}
		})
	}
}

// A session whose store exists but will not open is a 500 open_failed
// naming the cause, on the lazy reopen behind GET as on PUT; it is neither
// missing (404) nor a bad request, and the failed open truncates nothing.
// The store here has a flipped byte in its log's first frame, the options,
// with two acknowledged frames after it. Options out of range are still a
// 400, checked before any open, and DELETE still removes the session.
func TestServerCorruptStoreOpenFailed(t *testing.T) {
	dir := t.TempDir()
	srv1 := New(Config{DataDir: dir})
	ts1 := httptest.NewServer(srv1)
	createSession(t, ts1, "crash", `{"equi": true}`)
	postTable(t, ts1, "crash", "people", `{"name":"alice","city":"Berlin"}`)
	postTable(t, ts1, "crash", "jobs", `{"name":"alice","job":"eng"}`)
	if err := srv1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Close()

	flip := func(name string, at int) []byte {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		data[at] ^= 0x20
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return data
	}
	log := filepath.Join(dir, "crash", "wal-0.log")
	corruptLog := flip(log, 12) // inside the options frame's payload

	_, ts := newTestServer(t, Config{DataDir: dir})
	for _, c := range []struct{ session, names string }{
		{"crash", "wal-0.log"},
	} {
		for _, req := range []struct{ method, body string }{
			{http.MethodGet, ""},
			{http.MethodPut, `{"equi": true}`},
		} {
			resp, body := doReq(t, req.method, ts.URL+"/v1/sessions/"+c.session, req.body, nil)
			var eb errorBody
			json.Unmarshal(body, &eb)
			if resp.StatusCode != http.StatusInternalServerError || eb.Code != "open_failed" || !strings.Contains(eb.Error, c.names) {
				t.Fatalf("%s corrupt session %s: status %d body %s, want 500 open_failed naming %s", req.method, c.session, resp.StatusCode, body, c.names)
			}
		}
	}
	if got, err := os.ReadFile(log); err != nil || !slices.Equal(got, corruptLog) {
		t.Fatalf("the failed open changed the log (%v)", err)
	}
	if resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/sessions/crash", `{"threshold": 2}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("threshold 2: status %d body %s, want 400", resp.StatusCode, body)
	}
	if resp, body := doReq(t, http.MethodDelete, ts.URL+"/v1/sessions/crash", "", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete corrupt session: status %d body %s, want 204", resp.StatusCode, body)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/crash", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
	}
}

// Idle eviction of a durable session loses nothing: its log already holds
// every add, and the next request transparently reopens it with its state
// intact.
func TestServerEvictionFlushesAndReopens(t *testing.T) {
	srv, ts := newTestServer(t, Config{DataDir: t.TempDir(), IdleTTL: 30 * time.Millisecond})
	createSession(t, ts, "ev", `{"equi": true}`)
	postTable(t, ts, "ev", "people", `{"name":"alice","city":"Berlin"}`)
	want := resultJSON(t, ts, "ev")

	deadline := time.Now().Add(5 * time.Second)
	for srv.reg.count() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session was never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	got := resultJSON(t, ts, "ev")
	if !reflect.DeepEqual(got["rows"], want["rows"]) {
		t.Fatalf("reopened-after-eviction result diverges:\ngot  %v\nwant %v", got, want)
	}
}

// A panic on the batcher goroutine is contained to its flight: the waiter
// gets a 500, the panic is counted, and the daemon keeps serving.
func TestServerBatcherPanicContained(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createSession(t, ts, "p", `{"equi": true}`)
	srv.setIntegrateHook(func(string) { panic("injected integration panic") })

	_, err := postTableErr(ts, "p", "t1", `{"a":"1"}`)
	if err == nil || !strings.Contains(err.Error(), "status 500") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking flight did not 500: %v", err)
	}

	srv.setIntegrateHook(nil)
	postTable(t, ts, "p", "t2", `{"a":"2"}`) // daemon still alive and integrating
	resp, body := doReq(t, http.MethodGet, ts.URL+"/metrics", "", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "fuzzyfdd_panics_total 1") {
		t.Errorf("panic not counted in metrics:\n%s", body)
	}
}

// A panic inside an HTTP handler is caught by the ServeHTTP middleware:
// 500 with a typed body naming the request id, counter bumped, server up.
func TestServerHandlerPanicMiddleware(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	resp, body := doReq(t, http.MethodGet, ts.URL+"/boom", "", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("unparseable error body %q: %v", body, err)
	}
	if eb.Code != "internal_panic" || eb.RequestID == "" || !strings.Contains(eb.Error, "kaboom") {
		t.Errorf("error body = %+v", eb)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/healthz", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("server unhealthy after recovered panic: %d", resp.StatusCode)
	}
}

// A request whose integration exceeds -request-timeout gets 504 with the
// typed timeout body; the integration itself still lands in the session.
func TestServerRequestTimeout(t *testing.T) {
	srv, ts := newTestServer(t, Config{RequestTimeout: 30 * time.Millisecond})
	createSession(t, ts, "slow", `{"equi": true}`)
	release := make(chan struct{})
	srv.setIntegrateHook(func(string) { <-release })

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/slow/tables?table=t1",
		strings.NewReader(`{"a":"1"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || eb.Code != "timeout" {
		t.Fatalf("status %d body %+v, want 504/timeout", resp.StatusCode, eb)
	}

	close(release)
	srv.setIntegrateHook(nil)
	// The timed-out table was committed to its flight; once it finishes the
	// session contains it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := resultJSON(t, ts, "slow")
		if rows, _ := got["rows"].([]any); len(rows) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed-out integration never landed: %v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Malformed JSONL is rejected with a 400 naming the offending line, and
// the configured row cap is enforced.
func TestServerBadJSONLNamesLine(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRows: 2})
	createSession(t, ts, "j", `{"equi": true}`)

	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/sessions/j/tables?table=t1",
		"{\"a\":\"1\"}\n{broken", nil)
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("unparseable error body %q: %v", body, err)
	}
	if resp.StatusCode != http.StatusBadRequest || eb.Code != "bad_jsonl" || !strings.Contains(eb.Error, "line 2") {
		t.Fatalf("status %d body %+v, want 400/bad_jsonl naming line 2", resp.StatusCode, eb)
	}

	var sb strings.Builder
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&sb, "{\"a\":\"%d\"}\n", i)
	}
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/sessions/j/tables?table=t2", sb.String(), nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "row limit") {
		t.Fatalf("row cap not enforced: status %d: %s", resp.StatusCode, body)
	}
}

// Session names that would escape the data directory are refused (the
// HTTP path cleaner catches them even earlier, but the mapping must be
// safe on its own), and odd but safe names land in one flat escaped dir.
func TestServerSessionNameEscaping(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{DataDir: dir})

	for _, bad := range []string{".", "..", ""} {
		if got, err := srv.sessionDir(bad); err == nil {
			t.Errorf("sessionDir(%q) = %q, want error", bad, got)
		}
	}
	if got, err := srv.sessionDir("a/b"); err != nil || strings.ContainsRune(filepath.Base(got), '/') {
		t.Errorf("sessionDir(\"a/b\") = %q, %v", got, err)
	}

	createSession(t, ts, "a%2Fb", "") // decodes to the session name "a/b"
	if _, err := os.Stat(filepath.Join(dir, "a%2Fb")); err != nil {
		t.Fatalf("escaped session dir missing: %v", err)
	}
}

// countingFS wraps a wal.FS and counts what sessions ask of it: creates
// (directories, and files opened for writing), writes (file writes,
// truncations, removals) and fsyncs (of files and directories). wal.FS has
// no rename, so nothing renames through it.
type countingFS struct {
	wal.FS
	creates, writes, fsyncs atomic.Int64
}

func (c *countingFS) counts() [3]int64 {
	return [3]int64{c.creates.Load(), c.writes.Load(), c.fsyncs.Load()}
}

func (c *countingFS) MkdirAll(dir string) error { c.creates.Add(1); return c.FS.MkdirAll(dir) }
func (c *countingFS) OpenAppend(name string) (wal.File, error) {
	c.creates.Add(1)
	return c.file(c.FS.OpenAppend(name))
}
func (c *countingFS) Truncate(name string, size int64) error {
	c.writes.Add(1)
	return c.FS.Truncate(name, size)
}
func (c *countingFS) Remove(name string) error { c.writes.Add(1); return c.FS.Remove(name) }
func (c *countingFS) SyncDir(dir string) error { c.fsyncs.Add(1); return c.FS.SyncDir(dir) }

func (c *countingFS) file(f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) { f.fs.writes.Add(1); return f.File.Write(p) }
func (f *countingFile) Sync() error                 { f.fs.fsyncs.Add(1); return f.File.Sync() }

// readFS reads a whole file from fs.
func readFS(t *testing.T, fs wal.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// plantFS writes data as name on fs, synced, creating and committing its
// directory.
func plantFS(t *testing.T, fs *wal.MemFS, name string, data []byte) {
	t.Helper()
	dir := filepath.Dir(name)
	err := fs.MkdirAll(dir)
	var f wal.File
	if err == nil {
		f, err = fs.Create(name)
	}
	if err == nil {
		_, err = f.Write(data)
		if err == nil {
			err = f.Sync()
		}
		f.Close()
	}
	if err == nil {
		err = fs.SyncDir(dir)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// requireEmptyDir fails unless the real directory dir holds nothing.
func requireEmptyDir(t *testing.T, dir string) {
	t.Helper()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("%s holds %v (%v), want nothing", dir, ents, err)
	}
}

// A reopen writes nothing: after a restart, neither the GET that reopens a
// durable session nor a PUT of its name creates, writes or fsyncs anything
// on the WAL filesystem, and the log keeps every byte. The session's
// directory holds its log alone, and nothing lands under the real data
// directory: the WAL filesystem holds the whole session.
func TestServerReopenWritesNothing(t *testing.T) {
	dir := t.TempDir()
	fs := &countingFS{FS: wal.NewMemFS()}
	cfg := Config{DataDir: dir, WALFS: fs}
	srv, ts := newTestServer(t, cfg)
	createSession(t, ts, "cities", `{"equi": true}`)
	postTable(t, ts, "cities", "t1", `{"city":"Berlin","country":"Germany"}`)
	log := filepath.Join(dir, "cities", "wal-0.log")
	want := readFS(t, fs, log)

	_, ts2 := restartWith(t, srv, ts, cfg)
	before := fs.counts()
	resp, body := doReq(t, http.MethodGet, ts2.URL+"/v1/sessions/cities", "", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"tables":1`) {
		t.Fatalf("GET after restart: status %d: %s", resp.StatusCode, body)
	}
	if after := fs.counts(); after != before {
		t.Fatalf("the reopen made %v creates, writes and fsyncs", [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]})
	}

	_, ts3 := restartWith(t, srv, ts2, cfg)
	if resp, body := doReq(t, http.MethodPut, ts3.URL+"/v1/sessions/cities", `{}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT after restart: status %d: %s", resp.StatusCode, body)
	}
	if got := readFS(t, fs, log); !slices.Equal(got, want) {
		t.Fatalf("the reopening PUT changed wal-0.log: %d bytes, had %d", len(got), len(want))
	}
	if names, err := fs.ReadDir(filepath.Dir(log)); err != nil || !slices.Equal(names, []string{"wal-0.log"}) {
		t.Fatalf("the session directory holds %v (%v), want only wal-0.log", names, err)
	}
	requireEmptyDir(t, dir)
}

// DELETE removes a session's directory from the WAL filesystem: a PUT of
// the same name then starts with no tables. (TestServerRefusesLegacyLayouts
// deletes directories earlier versions wrote, nested ones included.)
func TestServerDeleteOnWALFS(t *testing.T) {
	dir := t.TempDir()
	mem := wal.NewMemFS()
	_, ts := newTestServer(t, Config{DataDir: dir, WALFS: mem})
	createSession(t, ts, "orders", `{"equi": true}`)
	postTable(t, ts, "orders", "people", `{"name":"alice","city":"Berlin"}`)
	if resp, body := doReq(t, http.MethodDelete, ts.URL+"/v1/sessions/orders", "", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d: %s", resp.StatusCode, body)
	}
	if _, err := mem.Stat(filepath.Join(dir, "orders")); err == nil {
		t.Errorf("DELETE left its directory on the WAL filesystem")
	}
	resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/sessions/orders", `{"equi": true}`, nil)
	if resp.StatusCode != http.StatusCreated || !strings.Contains(string(body), `"tables":0`) {
		t.Fatalf("PUT after DELETE: status %d: %s, want 201 with no tables", resp.StatusCode, body)
	}
	requireEmptyDir(t, dir)
}

// A DELETE that answered 204 survives power loss: the session's directory
// is gone from the filesystem's durable image, so a server restarted after
// a crash does not bring the deleted session back with its tables.
func TestServerDeleteIsDurable(t *testing.T) {
	dir := t.TempDir()
	mem := wal.NewMemFS()
	cfg := Config{DataDir: dir, WALFS: mem}
	srv, ts := newTestServer(t, cfg)
	createSession(t, ts, "orders", `{"equi": true}`)
	postTable(t, ts, "orders", "people", `{"name":"alice","city":"Berlin"}`)
	if resp, body := doReq(t, http.MethodDelete, ts.URL+"/v1/sessions/orders", "", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d: %s", resp.StatusCode, body)
	}
	mem.Crash()
	_, ts = restartWith(t, srv, ts, cfg)
	if resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/orders", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE and crash: status %d: %s, want 404", resp.StatusCode, body)
	}
	if _, err := mem.Stat(filepath.Join(dir, "orders")); err == nil {
		t.Error("the deleted session's directory came back after a crash")
	}
}

// What a crash inside the options frame leaves, a log holding part of its
// first frame, is no session: GET answers 404 and a PUT creates it. A log
// of acknowledged adds with no options frame, as core.OpenSession writes,
// will not open: 500 open_failed naming the log, and the log is left as it
// is.
func TestServerSessionWithoutOptions(t *testing.T) {
	dir := t.TempDir()
	mem := wal.NewMemFS()
	_, ts := newTestServer(t, Config{DataDir: dir, WALFS: mem})
	createSession(t, ts, "whole", `{"equi": true}`)
	postTable(t, ts, "whole", "people", `{"name":"alice","city":"Berlin"}`)
	log := readFS(t, mem, filepath.Join(dir, "whole", "wal-0.log"))
	first := 8 + int(binary.LittleEndian.Uint32(log))

	plantFS(t, mem, filepath.Join(dir, "torn", "wal-0.log"), log[:first-3])
	if resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/torn", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET torn: status %d: %s, want 404", resp.StatusCode, body)
	}
	createSession(t, ts, "torn", `{"equi": true}`)
	if got := readFS(t, mem, filepath.Join(dir, "torn", "wal-0.log")); !slices.Equal(got, log[:first]) {
		t.Fatalf("the re-created log holds %q, want the options frame %q", got, log[:first])
	}

	headless := filepath.Join(dir, "headless", "wal-0.log")
	plantFS(t, mem, headless, log[first:])
	for _, method := range []string{http.MethodGet, http.MethodPut} {
		resp, body := doReq(t, method, ts.URL+"/v1/sessions/headless", `{"equi": true}`, nil)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), `"code":"open_failed"`) || !strings.Contains(string(body), headless) {
			t.Fatalf("%s headless: status %d: %s, want 500 open_failed naming %s", method, resp.StatusCode, body, headless)
		}
	}
	if got := readFS(t, mem, headless); !slices.Equal(got, log[first:]) {
		t.Fatal("the failed open changed the log")
	}
}
