package server

import (
	"net/http"

	"fuzzyfd"
	"fuzzyfd/internal/metrics"
)

// serverMetrics is the bridge from the public fuzzyfd surface — FDStats,
// Timings, Session counters — to the Prometheus registry served at
// /metrics. Everything it reports comes through the public API, so the
// metric set is also a living inventory of what the library exposes.
type serverMetrics struct {
	reg *metrics.Registry

	sessions         *metrics.Family // gauge: live sessions (set at scrape)
	sessionsCreated  *metrics.Family // counter
	sessionsEvicted  *metrics.Family // counter
	sessionsReopened *metrics.Family // counter: durable sessions lazily reopened from disk
	panics           *metrics.Family // counter: recovered handler/batcher panics

	addRequests       *metrics.Family // counter {session}
	integrations      *metrics.Family // counter {session}
	integrationErrors *metrics.Family // counter {session}

	sessionTuples     *metrics.Family // gauge {session}: closure tuples
	sessionComponents *metrics.Family // gauge {session}
	sessionRows       *metrics.Family // gauge {session}: output rows
	reclosedTuples    *metrics.Family // counter {session}
	pivotSkipped      *metrics.Family // counter {session}
	rewriteCacheHits  *metrics.Family // gauge {session}

	phaseSeconds *metrics.Family // counter {phase}
	phaseRuns    *metrics.Family // counter {phase}

	rowsStreamed *metrics.Family // counter {session}
	sseDropped   *metrics.Family // counter {session}

	sessionsDegraded *metrics.Family // gauge: degraded durable sessions (set at scrape)
	snapshotFailures *metrics.Family // counter {session}: failed automatic snapshots
	throttled        *metrics.Family // counter {reason}: requests rejected by admission control
	inflightWaits    *metrics.Family // counter: flights that queued on the in-flight limiter
	probeRecoveries  *metrics.Family // counter: degraded logs re-armed by the prober
}

func newServerMetrics() *serverMetrics {
	r := metrics.NewRegistry()
	return &serverMetrics{
		reg:               r,
		sessions:          r.Gauge("fuzzyfdd_sessions", "Live integration sessions."),
		sessionsCreated:   r.Counter("fuzzyfdd_sessions_created_total", "Sessions created since start."),
		sessionsEvicted:   r.Counter("fuzzyfdd_sessions_evicted_total", "Sessions evicted (idle TTL or DELETE)."),
		sessionsReopened:  r.Counter("fuzzyfdd_sessions_reopened_total", "Durable sessions lazily reopened from the data directory."),
		panics:            r.Counter("fuzzyfdd_panics_total", "Panics recovered in handlers or coalesced integrations."),
		addRequests:       r.Counter("fuzzyfdd_add_requests_total", "Table-add requests received.", "session"),
		integrations:      r.Counter("fuzzyfdd_integrations_total", "Coalesced integrations executed.", "session"),
		integrationErrors: r.Counter("fuzzyfdd_integration_errors_total", "Integrations that failed.", "session"),
		sessionTuples:     r.Gauge("fuzzyfdd_session_tuples", "Closure tuples after the last integration.", "session"),
		sessionComponents: r.Gauge("fuzzyfdd_session_components", "Connected components after the last integration.", "session"),
		sessionRows:       r.Gauge("fuzzyfdd_session_rows", "Output rows of the last integration.", "session"),
		reclosedTuples:    r.Counter("fuzzyfdd_reclosed_tuples_total", "Closure tuples actually (re)computed across integrations.", "session"),
		pivotSkipped:      r.Counter("fuzzyfdd_pivot_skipped_total", "Candidate iterations skipped by pivot bucketing.", "session"),
		rewriteCacheHits:  r.Gauge("fuzzyfdd_rewrite_cache_hits", "Table rewrites served from the session's memoized views.", "session"),
		phaseSeconds:      r.Counter("fuzzyfdd_phase_seconds_total", "Time spent per pipeline phase.", "phase"),
		phaseRuns:         r.Counter("fuzzyfdd_phase_runs_total", "Phase executions per pipeline phase.", "phase"),
		rowsStreamed:      r.Counter("fuzzyfdd_result_rows_streamed_total", "Result rows streamed to clients.", "session"),
		sseDropped:        r.Counter("fuzzyfdd_sse_dropped_total", "Progress events dropped on slow SSE subscribers.", "session"),
		sessionsDegraded:  r.Gauge("fuzzyfdd_sessions_degraded", "Durable sessions whose log is degraded (writes rejected, reads served)."),
		snapshotFailures:  r.Counter("fuzzyfdd_snapshot_failures_total", "Automatic log compactions that failed (non-fatal; the log stays authoritative).", "session"),
		throttled:         r.Counter("fuzzyfdd_throttled_total", "Requests rejected by admission control.", "reason"),
		inflightWaits:     r.Counter("fuzzyfdd_inflight_waits_total", "Coalesced flights that queued on the in-flight integration limiter."),
		probeRecoveries:   r.Counter("fuzzyfdd_probe_recoveries_total", "Degraded session logs re-armed by the recovery prober."),
	}
}

// onIntegrated records one coalesced integration's outcome for a session.
func (m *serverMetrics) onIntegrated(name string, sess *fuzzyfd.Session, res *fuzzyfd.Result, err error) {
	if err != nil {
		m.integrationErrors.With(name).Inc()
		return
	}
	m.integrations.With(name).Inc()
	st := res.FDStats
	m.sessionTuples.With(name).Set(float64(st.Closure))
	m.sessionComponents.With(name).Set(float64(st.Components))
	m.sessionRows.With(name).Set(float64(st.Output))
	m.reclosedTuples.With(name).Add(float64(st.ReclosedTuples))
	m.pivotSkipped.With(name).Add(float64(st.PivotSkipped))
	m.rewriteCacheHits.With(name).Set(float64(sess.RewriteCacheHits()))
	for _, p := range []struct {
		phase string
		secs  float64
	}{
		{fuzzyfd.PhaseAlign, res.Timings.Align.Seconds()},
		{fuzzyfd.PhaseMatch, res.Timings.Match.Seconds()},
		{fuzzyfd.PhaseFD, res.Timings.FD.Seconds()},
	} {
		m.phaseSeconds.With(p.phase).Add(p.secs)
		m.phaseRuns.With(p.phase).Inc()
	}
}

// sessionCreated counts a new session.
func (m *serverMetrics) sessionCreated(string) { m.sessionsCreated.With().Inc() }

// sessionEvicted counts an eviction and retires the session's labeled
// series so the exposition does not grow a label cemetery.
func (m *serverMetrics) sessionEvicted(name string) {
	m.sessionsEvicted.With().Inc()
	for _, f := range []*metrics.Family{
		m.addRequests, m.integrations, m.integrationErrors,
		m.sessionTuples, m.sessionComponents, m.sessionRows,
		m.reclosedTuples, m.pivotSkipped,
		m.rewriteCacheHits, m.rowsStreamed, m.sseDropped,
		m.snapshotFailures,
	} {
		f.Delete(name)
	}
}

// handleMetrics serves the Prometheus text exposition, refreshing the
// scrape-time gauges first.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.met.sessions.With().Set(float64(s.reg.count()))
	degraded := 0
	for _, c := range s.reg.list() {
		if c.sess.Degraded() != nil {
			degraded++
		}
	}
	s.met.sessionsDegraded.With().Set(float64(degraded))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WriteText(w)
}
