package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fuzzyfd"
	"fuzzyfd/internal/table"
	"fuzzyfd/internal/wal"
)

// postRaw posts one table and returns the raw response — for tests that
// assert on error statuses, codes, and headers rather than success bodies.
func postRaw(t *testing.T, ts *httptest.Server, session, tableName, jsonl string) (*http.Response, []byte) {
	t.Helper()
	return doReq(t, http.MethodPost,
		fmt.Sprintf("%s/v1/sessions/%s/tables?table=%s", ts.URL, session, tableName), jsonl, nil)
}

// decodeErrorBody parses a typed error response.
func decodeErrorBody(t *testing.T, body []byte) errorBody {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	return eb
}

// requireThrottled asserts a typed overload rejection: status, machine
// code, a request id, and a Retry-After of at least one second.
func requireThrottled(t *testing.T, resp *http.Response, body []byte, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d (%s)", resp.StatusCode, status, body)
	}
	eb := decodeErrorBody(t, body)
	if eb.Code != code {
		t.Fatalf("code %q, want %q (%s)", eb.Code, code, body)
	}
	if eb.RequestID == "" {
		t.Errorf("typed %s body missing request_id: %s", code, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("%s response missing Retry-After", code)
	}
}

// fetchMetrics scrapes /metrics as text.
func fetchMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, ts.URL+"/metrics", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	return string(body)
}

// waitForMetricLine polls /metrics until a line is present or the deadline
// passes.
func waitForMetricLine(t *testing.T, ts *httptest.Server, line string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if strings.Contains(fetchMetrics(t, ts), line) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never showed %q; last scrape:\n%s", line, fetchMetrics(t, ts))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A session whose accumulating flight is full rejects further adds with a
// typed 429 (queue_full) instead of queueing unboundedly; once the running
// flight completes the queue drains and adds flow again.
func TestServerQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxQueue: 1})
	createSession(t, ts, "q", `{"equi": true}`)

	entered := make(chan struct{}, 8)
	block := make(chan struct{})
	srv.setIntegrateHook(func(string) {
		entered <- struct{}{}
		<-block
	})

	errs := make(chan error, 2)
	go func() {
		_, err := postTableErr(ts, "q", "t0", `{"k":"a"}`)
		errs <- err
	}()
	<-entered // flight t0 is running and parked on the hook

	go func() {
		_, err := postTableErr(ts, "q", "t1", `{"k":"b"}`)
		errs <- err
	}()
	// Wait until t1 occupies the accumulating flight's single slot.
	c := srv.reg.get("q")
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.bat.mu.Lock()
		queued := c.bat.cur != nil && len(c.bat.cur.tables) == 1
		c.bat.mu.Unlock()
		if queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("t1 never reached the accumulating flight")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postRaw(t, ts, "q", "t2", `{"k":"c"}`)
	requireThrottled(t, resp, body, http.StatusTooManyRequests, "queue_full")

	close(block)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued add failed after unblock: %v", err)
		}
	}
	if !strings.Contains(fetchMetrics(t, ts), `fuzzyfdd_throttled_total{reason="queue_full"} 1`) {
		t.Error("queue_full rejection not counted in fuzzyfdd_throttled_total")
	}
}

// The per-session token bucket turns an ingestion burst beyond -rate into
// typed 429s (rate_limited) carrying Retry-After.
func TestServerRateLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{RatePerSec: 0.001, Burst: 1})
	createSession(t, ts, "r", `{"equi": true}`)

	if _, err := postTableErr(ts, "r", "t0", `{"k":"a"}`); err != nil {
		t.Fatalf("first add within burst: %v", err)
	}
	resp, body := postRaw(t, ts, "r", "t1", `{"k":"b"}`)
	requireThrottled(t, resp, body, http.StatusTooManyRequests, "rate_limited")
	if !strings.Contains(fetchMetrics(t, ts), `fuzzyfdd_throttled_total{reason="rate_limited"} 1`) {
		t.Error("rate_limited rejection not counted in fuzzyfdd_throttled_total")
	}
}

// The session cap's 429 is typed and carries Retry-After.
func TestServerSessionLimitTyped(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})
	createSession(t, ts, "only", `{"equi": true}`)
	resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/sessions/more", "", nil)
	requireThrottled(t, resp, body, http.StatusTooManyRequests, "session_limit")
}

// Drain's 503s are typed (draining) and carry Retry-After on every
// state-changing route.
func TestServerDrainTyped(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createSession(t, ts, "d", `{"equi": true}`)
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	resp, body := postRaw(t, ts, "d", "t0", `{"k":"a"}`)
	requireThrottled(t, resp, body, http.StatusServiceUnavailable, "draining")
	resp, body = doReq(t, http.MethodPut, ts.URL+"/v1/sessions/late", "", nil)
	requireThrottled(t, resp, body, http.StatusServiceUnavailable, "draining")
}

// A server-wide memory budget fails oversized integrations with a typed
// 422 (memory_budget).
func TestServerMemoryBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{MemoryBudget: 64})
	createSession(t, ts, "m", `{"equi": true}`)
	resp, body := postRaw(t, ts, "m", "t0", `{"k":"a","v":"long-enough-value"}
{"k":"b","v":"another-long-value"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, body)
	}
	if eb := decodeErrorBody(t, body); eb.Code != "memory_budget" {
		t.Fatalf("code %q, want memory_budget (%s)", eb.Code, body)
	}
}

// The global in-flight limiter queues flights beyond -max-inflight rather
// than failing them, and counts the queuing.
func TestServerInflightLimit(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1})
	createSession(t, ts, "a", `{"equi": true}`)
	createSession(t, ts, "b", `{"equi": true}`)

	entered := make(chan struct{}, 1)
	block := make(chan struct{})
	srv.setIntegrateHook(func(name string) {
		if name == "a" {
			entered <- struct{}{}
			<-block
		}
	})

	errs := make(chan error, 2)
	go func() {
		_, err := postTableErr(ts, "a", "t0", `{"k":"a"}`)
		errs <- err
	}()
	<-entered // a's flight holds the only slot, parked on the hook
	go func() {
		_, err := postTableErr(ts, "b", "t0", `{"k":"b"}`)
		errs <- err
	}()
	// b's flight must queue on the limiter, not fail.
	waitForMetricLine(t, ts, "fuzzyfdd_inflight_waits_total 1")

	close(block)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("flight failed under in-flight limit: %v", err)
		}
	}
}

// A durable session whose filesystem dies degrades to read-only — writes
// get a typed 503 (degraded) while reads and streams keep working — and
// recovers write availability when the filesystem heals: the first write
// after the heal re-arms the log and lands.
func TestServerDegradedThenHeals(t *testing.T) {
	flaky := wal.NewFlakyFS(wal.NewMemFS(), 0, 11)
	_, ts := newTestServer(t, Config{DataDir: t.TempDir(), WALFS: flaky})
	createSession(t, ts, "d", `{"equi": true}`)
	if _, err := postTableErr(ts, "d", "t0", `{"k":"a"}`); err != nil {
		t.Fatal(err)
	}

	flaky.SetRate(1)
	resp, body := postRaw(t, ts, "d", "t1", `{"k":"b"}`)
	requireThrottled(t, resp, body, http.StatusServiceUnavailable, "degraded")
	// Nothing re-arms the log before the next write, so that may come at once.
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("degraded Retry-After %q, want 1", ra)
	}
	waitForMetricLine(t, ts, "fuzzyfdd_sessions_degraded 1")

	// Reads still work while degraded.
	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/sessions/d/result", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read while degraded: status %d: %s", resp.StatusCode, body)
	}

	flaky.SetRate(0)
	if _, err := postTableErr(ts, "d", "t2", `{"k":"c"}`); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	waitForMetricLine(t, ts, "fuzzyfdd_sessions_degraded 0")
}

// Janitor eviction racing lazy durable reopens of the same session name:
// requests landing while the janitor closes the store must wait for the
// close (it runs under the registry lock), never open the WAL a departing
// store still holds, and never observe an error. Run under -race.
func TestServerEvictionReopenRace(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir(), IdleTTL: 20 * time.Millisecond})
	createSession(t, ts, "race", `{"equi": true}`)
	if _, err := postTableErr(ts, "race", "seed", `{"k":"seed"}`); err != nil {
		t.Fatal(err)
	}
	tables := 1

	for round := 0; round < 6; round++ {
		time.Sleep(40 * time.Millisecond) // let the TTL lapse so eviction fires
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/race", "", nil)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("get during eviction race: status %d: %s", resp.StatusCode, body)
				}
			}()
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			name := fmt.Sprintf("r%d_%d", round, g)
			go func() {
				defer wg.Done()
				if _, err := postTableErr(ts, "race", name, fmt.Sprintf(`{"k":%q}`, name)); err != nil {
					errs <- fmt.Errorf("post during eviction race: %w", err)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		tables += 2
	}

	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/race", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final get: status %d: %s", resp.StatusCode, body)
	}
	var inf sessionInfo
	if err := json.Unmarshal(body, &inf); err != nil {
		t.Fatal(err)
	}
	if inf.Tables != tables {
		t.Fatalf("session holds %d tables after the race, want %d", inf.Tables, tables)
	}
}

// Chaos property: under concurrent load on a probabilistically failing
// filesystem, every response is either a success or a typed overload 503;
// every acknowledged batch is in the final result; and the final result is
// byte-identical to a fault-free oracle fed exactly the acknowledged set.
// After the filesystem heals, the next write lands and re-arms the log
// (degraded gauge drops to zero).
func TestServerChaosAckedBatchesSurvive(t *testing.T) {
	flaky := wal.NewFlakyFS(wal.NewMemFS(), 0, 7)
	_, ts := newTestServer(t, Config{DataDir: t.TempDir(), WALFS: flaky})
	createSession(t, ts, "chaos", `{"equi": true}`)
	flaky.SetRate(0.25)

	const workers, posts = 8, 6
	type acked struct {
		name, jsonl string
	}
	var mu sync.Mutex
	var acks []acked
	var badStatus []string
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				name := fmt.Sprintf("t%d_%d", w, i)
				jsonl := fmt.Sprintf(`{"k":%q}`, fmt.Sprintf("v%d_%d", w, i))
				resp, body := postRaw(t, ts, "chaos", name, jsonl)
				mu.Lock()
				switch {
				case resp.StatusCode == http.StatusOK:
					acks = append(acks, acked{name, jsonl})
				case resp.StatusCode == http.StatusServiceUnavailable:
					if eb := decodeErrorBody(t, body); eb.Code != "degraded" && eb.Code != "session_closed" {
						badStatus = append(badStatus, fmt.Sprintf("503 with code %q: %s", eb.Code, body))
					}
				default:
					badStatus = append(badStatus, fmt.Sprintf("status %d: %s", resp.StatusCode, body))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, s := range badStatus {
		t.Errorf("disallowed response under chaos: %s", s)
	}

	// Heal; the next write must land, and in landing re-arm the log.
	flaky.SetRate(0)
	if _, err := postTableErr(ts, "chaos", "final", `{"k":"final"}`); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	waitForMetricLine(t, ts, "fuzzyfdd_sessions_degraded 0")
	acks = append(acks, acked{"final", `{"k":"final"}`})

	// Stream the server's final result.
	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/chaos/result", "",
		map[string]string{"Accept": "application/jsonl"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream result: status %d: %s", resp.StatusCode, body)
	}
	got := sortedJSONLLines(body)

	// Oracle: a fault-free in-memory session fed exactly the acked set.
	oracle, err := fuzzyfd.NewSession(fuzzyfd.WithEquiJoin())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acks {
		tbl, err := fuzzyfd.ReadJSONL(strings.NewReader(a.jsonl), a.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Append(tbl); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	_, err = oracle.StreamContext(t.Context(), func(schema fuzzyfd.Schema, row fuzzyfd.Row, _ []fuzzyfd.TID) error {
		line, err := json.Marshal(table.RowObject(schema.Columns, row))
		if err != nil {
			return err
		}
		want = append(want, string(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)

	if len(got) != len(want) {
		t.Fatalf("server result has %d rows, oracle %d (acked %d batches)", len(got), len(want), len(acks))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs:\nserver: %s\noracle: %s", i, got[i], want[i])
		}
	}
}
