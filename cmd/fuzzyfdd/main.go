// Command fuzzyfdd is the fuzzyfd integration daemon: a long-lived HTTP
// server hosting named incremental integration sessions. Clients create a
// session, POST tables as JSON Lines (concurrent posts to one session
// coalesce into single incremental integrations), stream the integrated
// result back as JSON Lines, follow progress over Server-Sent Events, and
// scrape Prometheus metrics from /metrics.
//
//	fuzzyfdd -addr :8080 -max-sessions 64 -idle-ttl 30m -memory-budget 2000000000 \
//	         -data-dir /var/lib/fuzzyfdd -request-timeout 2m
//
// With -data-dir every session is durable: its creation options are the
// first frame of a checksummed write-ahead log, each table-add is written
// to that log and fsync'd before the request is acknowledged, and the log
// is all the daemon writes. After a crash or restart the daemon lazily
// reopens each named session — reading its options from the log and
// replaying the rest, writing nothing — on its first request. A session
// directory holds its log and nothing else: one in the layout an earlier
// version wrote (a snapshot before the log, or the options in a
// session.json beside it) is refused and left as it is. A store that will
// not open (such a directory, a corrupt frame with acknowledged frames
// after it, or tables without options) answers 500 open_failed naming the
// cause. DELETE removes a session's on-disk state for good; idle eviction
// merely drops it from memory (the next request reopens it, or answers 429
// session_limit at -max-sessions). Opening, reopening, evicting and deleting a session
// serialize on one registry lock, so no concurrent request undoes a DELETE.
//
// Endpoints:
//
//	PUT    /v1/sessions/{name}          create a session (JSON options body)
//	GET    /v1/sessions                 list sessions with statistics
//	GET    /v1/sessions/{name}          one session's statistics
//	DELETE /v1/sessions/{name}          remove a session and its on-disk state for good
//	POST   /v1/sessions/{name}/tables   add a JSONL table and integrate
//	GET    /v1/sessions/{name}/result   result; Accept: application/jsonl streams
//	GET    /v1/sessions/{name}/events   progress as Server-Sent Events
//	GET    /metrics                     Prometheus text exposition
//	GET    /healthz                     ok, or 503 once draining
//
// On SIGTERM or SIGINT the daemon drains: new state-changing requests get
// 503, in-flight integrations finish (up to -drain-timeout), then the
// listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fuzzyfd/internal/server"
	"fuzzyfd/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxSessions := flag.Int("max-sessions", 64, "maximum live sessions")
	idleTTL := flag.Duration("idle-ttl", 0, "evict sessions idle this long (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on shutdown")
	dataDir := flag.String("data-dir", "", "make sessions durable under this directory; they survive restarts")
	requestTimeout := flag.Duration("request-timeout", 0, "bound ingestion/result requests; exceeded requests get 504 (0 unbounded)")
	maxLineBytes := flag.Int("max-line-bytes", 0, "max bytes of one ingested JSONL line (0: 4MiB default)")
	maxRows := flag.Int("max-rows", 0, "max rows of one ingested table (0 unlimited)")
	queue := flag.Int("queue", 0, "max tables queued per session flight; beyond it adds get 429 (0 unbounded)")
	maxInflight := flag.Int("max-inflight", 0, "max integrations running concurrently across sessions (0 unbounded)")
	rate := flag.Float64("rate", 0, "max table-add requests per second per session (0 unlimited)")
	burst := flag.Int("burst", 0, "token-bucket burst for -rate (min 1)")
	memoryBudget := flag.Int64("memory-budget", 0, "per-session FD memory budget ceiling in bytes (0 unbounded)")
	chaosRate := flag.Float64("chaos-fault-rate", 0, "inject transient WAL filesystem faults with this probability (testing only; requires -data-dir)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for -chaos-fault-rate fault injection")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: fuzzyfdd [flags]\n")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var walFS wal.FS
	if *chaosRate > 0 {
		if *dataDir == "" {
			fmt.Fprintf(os.Stderr, "fuzzyfdd: -chaos-fault-rate requires -data-dir\n")
			os.Exit(2)
		}
		log.Printf("fuzzyfdd: CHAOS MODE: injecting transient WAL faults at rate %g (seed %d) — testing only", *chaosRate, *chaosSeed)
		walFS = wal.NewFlakyFS(wal.OSFS{}, *chaosRate, *chaosSeed)
	}

	srv := server.New(server.Config{
		MaxSessions:    *maxSessions,
		IdleTTL:        *idleTTL,
		DataDir:        *dataDir,
		RequestTimeout: *requestTimeout,
		MaxLineBytes:   *maxLineBytes,
		MaxRows:        *maxRows,
		MaxQueue:       *queue,
		MaxInflight:    *maxInflight,
		RatePerSec:     *rate,
		Burst:          *burst,
		MemoryBudget:   *memoryBudget,
		WALFS:          walFS,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("fuzzyfdd listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatalf("fuzzyfdd: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("fuzzyfdd draining (deadline %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("fuzzyfdd: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("fuzzyfdd: shutdown: %v", err)
	}
	srv.Close()
	log.Printf("fuzzyfdd stopped")
}
