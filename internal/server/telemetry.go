// telemetry.go is the server's observability surface beyond /v2/stats:
// GET /metrics (Prometheus text exposition of the registry every
// handler records into), GET /v2/trace/{id} (the span buffer fetch),
// the serving gauges, and the per-principal request quota middleware.
package server

import (
	"net"
	"net/http"
	"strings"
	"time"

	"ssrec/internal/telemetry"
)

// registerGauges wires the serving state the handlers already track
// into the registry as lazily-read gauges — /metrics reports them
// without double bookkeeping.
func (s *Server) registerGauges() {
	reg := s.telemetry
	reg.GaugeFunc("ssrec_index_users",
		"Users indexed by the backend.",
		func() float64 { return float64(s.eng.Users()) })
	reg.GaugeFunc("ssrec_sessions_open",
		"Open /v2/session streams.",
		func() float64 { return float64(s.sessions.open.Load()) })
	reg.GaugeFunc("ssrec_sessions_total",
		"Total /v2/session streams accepted.",
		func() float64 { return float64(s.sessions.total.Load()) })
	reg.GaugeFunc("ssrec_session_lines_total",
		"Command lines received across all sessions.",
		func() float64 { return float64(s.sessions.lines.Load()) })
	reg.GaugeFunc("ssrec_observe_inflight",
		"Running /v2/observe bulk streams.",
		func() float64 { return float64(s.inflightObserve.Load()) })
	reg.GaugeFunc("ssrec_wal_appends_total",
		"WAL appends of the single-engine durable log (0 without a WAL).",
		func() float64 {
			if wl, ok := s.eng.(walLogger); ok {
				return float64(wl.Log().Stats().Appends)
			}
			return 0
		})
}

// traceV2Response is the body of GET /v2/trace/{id}.
type traceV2Response struct {
	TraceID string               `json:"trace_id"`
	Spans   []telemetry.SpanData `json:"spans"`
}

// handleTraceV2 fetches one buffered trace's spans — the tree a traced
// request left behind (root the http.request span; remote shard spans
// imported from the RPC terminal lines appear under their RPC legs).
func (s *Server) handleTraceV2(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := s.tracer.Trace(id)
	if spans == nil {
		httpError(w, http.StatusNotFound, "unknown trace id (evicted or never recorded)")
		return
	}
	writeJSON(w, http.StatusOK, traceV2Response{TraceID: id, Spans: spans})
}

// principalBucket is one principal's token bucket. Unlike the session
// pacer (which blocks mid-stream), quota rejection is non-blocking: a
// request either holds a token or answers 429 immediately.
type principalBucket struct {
	tokens float64
	last   time.Time
}

// principal keys the quota: the bearer token when the request carries
// one (regardless of whether auth is enforced), else the remote host —
// so one noisy client cannot starve the rest even on a token-less
// deployment.
func principal(r *http.Request) string {
	if tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok && tok != "" {
		return "token:" + tok
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "host:" + host
}

// takePrincipal refills and draws one token from key's bucket,
// reporting whether the request is admitted.
func (s *Server) takePrincipal(key string, now time.Time) bool {
	burst := float64(s.PrincipalBurst)
	if burst < 1 {
		burst = max(1, s.PrincipalRate)
	}
	s.principalMu.Lock()
	defer s.principalMu.Unlock()
	b := s.principals[key]
	if b == nil {
		b = &principalBucket{tokens: burst, last: now}
		s.principals[key] = b
	}
	b.tokens += s.PrincipalRate * now.Sub(b.last).Seconds()
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// principalQuota enforces PrincipalRate on the API surface (/v2/*;
// /healthz and /metrics stay unmetered). It sits INSIDE
// requireAuth so an invalid token is 401 before it is 429.
func (s *Server) principalQuota(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.PrincipalRate > 0 && strings.HasPrefix(r.URL.Path, "/v2/") {
			if !s.takePrincipal(principal(r), time.Now()) {
				s.rejectStatus(w, http.StatusTooManyRequests, "principal request quota exceeded")
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}
