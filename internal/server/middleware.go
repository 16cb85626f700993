// middleware.go instruments every request of the API: a request ID
// (accepted from X-Request-ID or generated) is echoed on the response, the
// per-route latency/error counters behind /v2/stats are recorded (into the
// telemetry registry, which /metrics and /v2/stats both read), and a root
// trace span is opened when the request is traced.
package server

import (
	"crypto/subtle"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssrec/internal/telemetry"
)

// requestIDHeader carries the caller-supplied or generated request ID.
const requestIDHeader = "X-Request-ID"

var (
	reqCounter atomic.Int64
	procEpoch  = time.Now().UnixNano()
)

// nextRequestID generates a process-unique request ID.
func nextRequestID() string {
	return fmt.Sprintf("req-%x-%x", procEpoch, reqCounter.Add(1))
}

// statusString renders the common response codes without the strconv
// allocation the traced hot path would otherwise pay per request.
func statusString(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusNoContent:
		return "204"
	case http.StatusBadRequest:
		return "400"
	case http.StatusUnauthorized:
		return "401"
	case http.StatusNotFound:
		return "404"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusInternalServerError:
		return "500"
	}
	return strconv.Itoa(code)
}

// statusRecorder captures the response status for the latency counters
// while passing Flush through (the NDJSON observe stream needs it).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach Flush/deadline support on the
// underlying writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps the mux with request-ID, latency and tracing
// middleware. A request is traced when TraceAll is set OR the
// caller sent an X-Ssrec-Trace header (per-request opt-in); untraced
// requests pay one header lookup and nothing else.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = nextRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		var span *telemetry.Span
		// Presence of the header opts in, even with an empty value — a
		// client asking for a trace should not have to mint an id.
		if _, traced := r.Header[telemetry.TraceHeader]; s.TraceAll || traced {
			var ctx = r.Context()
			ctx, span = s.tracer.StartRequest(ctx, "http.request", r.Header.Get(telemetry.TraceHeader))
			// Echo the trace id so the caller can fetch /v2/trace/{id}.
			w.Header().Set(telemetry.TraceHeader, telemetry.TraceID(ctx))
			r = r.WithContext(ctx)
		}
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		route := r.Pattern // set by the mux match; empty when rejected before it
		if route == "" {
			switch rec.status {
			case http.StatusUnauthorized: // requireAuth reject
				route = "unauthorized"
			case http.StatusTooManyRequests: // principalQuota reject
				route = "quota_rejected"
			default: // 404
				route = "unmatched"
			}
		}
		span.SetAttr("route", route)
		span.SetAttr("status", statusString(rec.status))
		span.End()
		s.metrics.record(route, rec.status, time.Since(start))
	})
}

// requireAuth gates the whole API surface behind a shared bearer token
// when Server.AuthToken is set: every /v2/* route (including the
// /v2/session stream) answers 401 without "Authorization: Bearer
// <token>". Only /healthz and /metrics stay unauthenticated; probes and
// scrapers must not need credentials. Comparison is constant-time.
func (s *Server) requireAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.AuthToken != "" && strings.HasPrefix(r.URL.Path, "/v2/") {
			tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || subtle.ConstantTimeCompare([]byte(tok), []byte(s.AuthToken)) != 1 {
				w.Header().Set("WWW-Authenticate", `Bearer realm="ssrec"`)
				httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// routeMetrics are one route's registry-backed counters: the same
// series /metrics exposes, re-derived into the /v2/stats requests block
// by snapshot().
type routeMetrics struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
}

// apiMetrics aggregates routeMetrics by route pattern.
type apiMetrics struct {
	reg    *telemetry.Registry
	mu     sync.Mutex
	routes map[string]*routeMetrics
}

func newAPIMetrics(reg *telemetry.Registry) *apiMetrics {
	return &apiMetrics{reg: reg, routes: make(map[string]*routeMetrics)}
}

func (m *apiMetrics) route(pattern string) *routeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	rm := m.routes[pattern]
	if rm == nil {
		label := strings.TrimSpace(pattern)
		rm = &routeMetrics{
			requests: m.reg.Counter("ssrec_http_requests_total",
				"HTTP requests served, by route pattern.", "route", label),
			errors: m.reg.Counter("ssrec_http_errors_total",
				"HTTP responses with status >= 400, by route pattern.", "route", label),
			latency: m.reg.Histogram("ssrec_http_request_seconds",
				"HTTP request latency, by route pattern.", "route", label),
		}
		m.routes[pattern] = rm
	}
	return rm
}

func (m *apiMetrics) record(pattern string, status int, d time.Duration) {
	rm := m.route(pattern)
	rm.requests.Inc()
	if status >= 400 {
		rm.errors.Inc()
	}
	rm.latency.Observe(d)
}

// RouteStats is the wire form of one route's counters.
type RouteStats struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	MeanUs float64 `json:"mean_us"`
	MaxUs  float64 `json:"max_us"`
}

// snapshot derives the /v2/stats requests block from the registry
// series — /v2/stats is a view over the registry, not a second set of
// counters.
func (m *apiMetrics) snapshot() map[string]RouteStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]RouteStats, len(m.routes))
	for pattern, rm := range m.routes {
		n := rm.latency.Count()
		st := RouteStats{
			Count:  int64(n),
			Errors: rm.errors.Value(),
			MaxUs:  float64(rm.latency.Max().Nanoseconds()) / 1e3,
		}
		if n > 0 {
			st.MeanUs = float64(rm.latency.Sum().Nanoseconds()) / float64(n) / 1e3
		}
		out[strings.TrimSpace(pattern)] = st
	}
	return out
}
