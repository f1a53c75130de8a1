// Server: the fuzzyfdd serving path, end to end, in one process. An
// in-process daemon hosts a session; ten clients concurrently POST the
// paper's Figure-1-style tables plus per-city extension tables, the server
// coalesces the burst into a handful of incremental integrations, a
// subscriber follows the progress stream, and the integrated result comes
// back as JSON Lines — followed by the /metrics exposition and a graceful
// drain.
//
// Run with: go run ./examples/server
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"fuzzyfd/internal/server"
)

func main() {
	srv := server.New(server.Config{MaxSessions: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Printf("fuzzyfdd serving on %s\n\n", ts.URL)

	must(request(http.MethodPut, ts.URL+"/v1/sessions/covid", `{"equi": true}`))

	// Follow the session's progress stream while the clients integrate.
	events, err := http.Get(ts.URL + "/v1/sessions/covid/events")
	if err != nil {
		log.Fatal(err)
	}
	defer events.Body.Close()
	go func() {
		sc := bufio.NewScanner(events.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				fmt.Printf("  progress %s\n", strings.TrimPrefix(line, "data: "))
			}
		}
	}()

	// Ten concurrent clients, one table each. The batcher coalesces the
	// burst: the first add integrates alone, everything arriving while it
	// runs lands in one follow-up integration.
	tables := map[string]string{
		"cases":  line(`{"city":"Berlin","cases":"1.4M"}`, `{"city":"Barcelona","cases":"2.68M"}`, `{"city":"Boston","cases":"263K"}`),
		"vacc":   line(`{"city":"Toronto","vacc":"83%"}`, `{"city":"Boston","vacc":"62%"}`, `{"city":"Berlin","vacc":"63%"}`),
		"deaths": line(`{"city":"Berlin","deaths":"147"}`, `{"city":"Barcelona","deaths":"275"}`),
	}
	for i := 0; i < 7; i++ {
		name := fmt.Sprintf("extra%d", i)
		tables[name] = line(fmt.Sprintf(`{"city":"City%d","%s":"v"}`, i, name))
	}
	var wg sync.WaitGroup
	for name, body := range tables {
		wg.Add(1)
		go func(name, body string) {
			defer wg.Done()
			out := must(request(http.MethodPost, ts.URL+"/v1/sessions/covid/tables?table="+name, body))
			fmt.Printf("added %-8s -> %s", name, out)
		}(name, body)
	}
	wg.Wait()

	info := must(request(http.MethodGet, ts.URL+"/v1/sessions/covid", ""))
	fmt.Printf("\nsession after the burst (note integrations << tables):\n%s\n", info)

	fmt.Println("integrated result, streamed as JSON Lines:")
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/covid/result", nil)
	req.Header.Set("Accept", "application/jsonl")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	rows, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Print(string(rows))

	metricsText := must(request(http.MethodGet, ts.URL+"/metrics", ""))
	fmt.Println("\nselected metrics:")
	for _, ln := range strings.Split(metricsText, "\n") {
		if strings.HasPrefix(ln, "fuzzyfdd_sessions ") ||
			strings.HasPrefix(ln, "fuzzyfdd_integrations_total") ||
			strings.HasPrefix(ln, "fuzzyfdd_add_requests_total") ||
			strings.HasPrefix(ln, "fuzzyfdd_session_rows") {
			fmt.Println("  " + ln)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	srv.Close()
	fmt.Println("\ndrained and stopped.")
}

func line(rows ...string) string { return strings.Join(rows, "\n") }

func request(method, url, body string) (string, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode >= 300 {
		return "", fmt.Errorf("%s %s: %d: %s", method, url, resp.StatusCode, data)
	}
	return string(data), nil
}

func must(out string, err error) string {
	if err != nil {
		log.Fatal(err)
	}
	return out
}
