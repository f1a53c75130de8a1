package server

import (
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// get returns the live named session, or nil.
func (r *registry) get(name string) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions[name]
}

// One DELETE racing four GETs that lazily reopen an evicted durable
// session: whichever order the registry lock picks, the DELETE is final.
// After every round the data directory holds no entry for the name and a
// GET answers 404, and no request in the race answers anything but 200,
// 204 or 404. Run under -race.
func TestServerDeleteReopenRace(t *testing.T) {
	dataDir := t.TempDir()
	srv, ts := newTestServer(t, Config{DataDir: dataDir, IdleTTL: 20 * time.Millisecond})
	const name = "race"
	for round := 0; round < 300; round++ {
		createSession(t, ts, name, `{"equi": true}`)
		// The janitor may evict the session under a slow add, which then
		// answers 503 session_closed and asks for a retry.
		for {
			resp, body := postRaw(t, ts, name, "t1", `{"k":"v"}`)
			if resp.StatusCode == http.StatusOK {
				break
			}
			if resp.StatusCode != http.StatusServiceUnavailable || decodeErrorBody(t, body).Code != "session_closed" {
				t.Fatalf("round %d: post: status %d: %s", round, resp.StatusCode, body)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.reg.count() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the session was never evicted", round)
			}
			time.Sleep(time.Millisecond)
		}

		var wg sync.WaitGroup
		status := make(chan string, 5)
		fire := func(method string, want ...int) {
			defer wg.Done()
			req, err := http.NewRequest(method, ts.URL+"/v1/sessions/"+name, nil)
			if err != nil {
				status <- err.Error()
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				status <- err.Error()
				return
			}
			resp.Body.Close()
			for _, w := range want {
				if resp.StatusCode == w {
					return
				}
			}
			status <- fmt.Sprintf("%s answered %d", method, resp.StatusCode)
		}
		wg.Add(5)
		go fire(http.MethodDelete, http.StatusNoContent)
		for g := 0; g < 4; g++ {
			go fire(http.MethodGet, http.StatusOK, http.StatusNotFound)
		}
		wg.Wait()
		close(status)
		for s := range status {
			t.Errorf("round %d: %s", round, s)
		}

		if _, err := os.Stat(filepath.Join(dataDir, url.QueryEscape(name))); !os.IsNotExist(err) {
			t.Fatalf("round %d: the session's directory is back after DELETE (%v)", round, err)
		}
		if resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/"+name, "", nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("round %d: GET after DELETE answered %d, want 404: %s", round, resp.StatusCode, body)
		}
	}
}

// A durable session that is on disk but not live is never a 404: at the
// session cap its GET and its POST answer 429 session_limit with
// Retry-After, as a PUT does, and once a slot frees the same GET reopens it.
func TestServerReopenAtSessionLimit(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := newTestServer(t, Config{DataDir: dir, MaxSessions: 1})
	createSession(t, ts1, "a", `{"equi": true}`)
	postTable(t, ts1, "a", "t1", `{"k":"v"}`)

	_, ts2 := restartWith(t, srv1, ts1, Config{DataDir: dir, MaxSessions: 1})
	createSession(t, ts2, "b", `{"equi": true}`)
	resp, body := doReq(t, http.MethodGet, ts2.URL+"/v1/sessions/a", "", nil)
	requireThrottled(t, resp, body, http.StatusTooManyRequests, "session_limit")
	resp, body = postRaw(t, ts2, "a", "t2", `{"k":"w"}`)
	requireThrottled(t, resp, body, http.StatusTooManyRequests, "session_limit")

	if resp, body := doReq(t, http.MethodDelete, ts2.URL+"/v1/sessions/b", "", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete b: status %d: %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodGet, ts2.URL+"/v1/sessions/a", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET a with a free slot: status %d: %s", resp.StatusCode, body)
	}
	if got := resultJSON(t, ts2, "a")["rows"].([]any); len(got) != 1 {
		t.Fatalf("reopened session holds %d rows, want 1", len(got))
	}
}

// A DELETE that lands while one of the session's flights is held open
// retires the session's series for good: the flight's outcome, recorded
// after the DELETE, must not write them back, and a session re-created
// under the same name starts from no series at all.
func TestServerDeleteDuringFlightRetiresSeries(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createSession(t, ts, "gone", `{"equi": true}`)
	entered, release := make(chan struct{}), make(chan struct{})
	srv.setIntegrateHook(func(string) {
		close(entered)
		<-release
	})
	posted := make(chan *http.Response, 1)
	go func() {
		resp, _ := postRaw(t, ts, "gone", "t1", `{"k":"v"}`)
		posted <- resp
	}()
	<-entered
	if resp, body := doReq(t, http.MethodDelete, ts.URL+"/v1/sessions/gone", "", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	srv.setIntegrateHook(nil)
	close(release)
	if resp := <-posted; resp.StatusCode == http.StatusOK {
		t.Fatal("an add to a session deleted under its flight was acknowledged")
	}
	if text := fetchMetrics(t, ts); strings.Contains(text, `session="gone"`) {
		t.Fatalf("the deleted session's series are back:\n%s", text)
	}

	createSession(t, ts, "gone", `{"equi": true}`)
	postTable(t, ts, "gone", "t2", `{"k":"w"}`)
	text := fetchMetrics(t, ts)
	for _, want := range []string{
		`fuzzyfdd_add_requests_total{session="gone"} 1`,
		`fuzzyfdd_integrations_total{session="gone"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "fuzzyfdd_integration_errors_total{") {
		t.Errorf("the deleted incarnation's failed flight is counted:\n%s", text)
	}
}
