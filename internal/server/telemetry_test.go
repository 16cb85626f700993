// telemetry_test.go: the HTTP server's telemetry surface — the GET
// /metrics exposition shape (golden-pinned per topology), the GET
// /v2/trace/{id} span fetch, the per-principal request quota, and the
// disabled-vs-enabled tracing overhead benchmarks the CI gate runs.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ssrec/internal/telemetry"
)

// metricsShape scrapes /metrics after one deterministic recommend call
// and replaces every sample value with a placeholder: the golden pins
// the family set, help/type lines, label sets and series ordering.
func metricsShape(t *testing.T, s *Server, item map[string]any) []byte {
	t.Helper()
	h := s.Handler()
	post(t, h, "/v2/recommend", map[string]any{"items": []map[string]any{item}, "k": 3})
	rr := get(t, h, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(rr.Body.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			b.WriteString(line)
			b.WriteByte('\n')
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		b.WriteString(line[:i])
		b.WriteString(" <v>\n")
	}
	return []byte(b.String())
}

func TestGoldenMetricsExposition(t *testing.T) {
	s, ds := testServer(t)
	checkGolden(t, "metrics_exposition.golden", metricsShape(t, s, itemBody(ds.Items[0])))
}

func TestGoldenMetricsShardedExposition(t *testing.T) {
	s, ds := testShardedServer(t, 2)
	checkGolden(t, "metrics_sharded.golden", metricsShape(t, s, itemBody(ds.Items[0])))
}

func TestGoldenMetricsReplicatedExposition(t *testing.T) {
	s, ds := testReplicatedServer(t, 2, 2)
	checkGolden(t, "metrics_replicated.golden", metricsShape(t, s, itemBody(ds.Items[0])))
}

// TestTraceFetch drives one traced recommend and fetches its span tree
// back via GET /v2/trace/{id}.
func TestTraceFetch(t *testing.T) {
	s, ds := testServer(t)
	s.TraceAll = true
	h := s.Handler()

	rr := post(t, h, "/v2/recommend", map[string]any{"items": []map[string]any{itemBody(ds.Items[0])}, "k": 3})
	if rr.Code != http.StatusOK {
		t.Fatalf("recommend status %d: %s", rr.Code, rr.Body.String())
	}
	id := rr.Header().Get(telemetry.TraceHeader)
	if id == "" {
		t.Fatalf("traced response carries no %s header", telemetry.TraceHeader)
	}

	tr := get(t, h, "/v2/trace/"+id)
	if tr.Code != http.StatusOK {
		t.Fatalf("trace fetch status %d: %s", tr.Code, tr.Body.String())
	}
	var resp struct {
		TraceID string               `json:"trace_id"`
		Spans   []telemetry.SpanData `json:"spans"`
	}
	if err := json.Unmarshal(tr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	names := map[string]bool{}
	for _, sp := range resp.Spans {
		names[sp.Name] = true
	}
	if !names["http.request"] || !names["sigtree.search"] {
		t.Errorf("span tree misses expected spans: %v", names)
	}

	if rr := get(t, h, "/v2/trace/no-such-id"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown trace id: status %d, want 404", rr.Code)
	}
}

// TestUntracedRequestHasNoHeader pins the sampling rule: without
// TraceAll and without an incoming trace header, nothing is traced and
// no trace header is echoed.
func TestUntracedRequestHasNoHeader(t *testing.T) {
	s, ds := testServer(t)
	h := s.Handler()
	rr := post(t, h, "/v2/recommend", map[string]any{"items": []map[string]any{itemBody(ds.Items[0])}, "k": 3})
	if rr.Code != http.StatusOK {
		t.Fatalf("recommend status %d", rr.Code)
	}
	if hv := rr.Header().Get(telemetry.TraceHeader); hv != "" {
		t.Errorf("untraced response carries %s: %q", telemetry.TraceHeader, hv)
	}
}

// TestEmptyTraceHeaderOptsIn pins the opt-in contract: sending the
// trace header at all requests a trace — an empty value must work, the
// client never has to mint an id.
func TestEmptyTraceHeaderOptsIn(t *testing.T) {
	s, ds := testServer(t)
	h := s.Handler()
	body, err := json.Marshal(map[string]any{"items": []map[string]any{itemBody(ds.Items[0])}, "k": 3})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v2/recommend", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.TraceHeader, "")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("recommend status %d: %s", rr.Code, rr.Body.String())
	}
	id := rr.Header().Get(telemetry.TraceHeader)
	if id == "" {
		t.Fatal("empty opt-in header produced no trace id")
	}
	if len(s.Tracer().Trace(id)) == 0 {
		t.Fatalf("no spans retained for trace %s", id)
	}
}

// TestPrincipalQuota pins the per-principal token bucket: a principal
// that exhausts its burst gets 429 + Retry-After while other principals
// stay admitted, and non-API routes are never quota'd. With auth off the
// principal is the client host.
func TestPrincipalQuota(t *testing.T) {
	s, ds := testServer(t)
	s.PrincipalRate = 0.001 // no meaningful refill within the test
	s.PrincipalBurst = 2
	h := s.Handler()

	body, err := json.Marshal(map[string]any{"items": []map[string]any{itemBody(ds.Items[0])}, "k": 3})
	if err != nil {
		t.Fatal(err)
	}
	ask := func(remote string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v2/recommend", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.RemoteAddr = remote
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	const alice, bob = "192.0.2.1:40000", "192.0.2.2:40000"

	for i := 0; i < 2; i++ {
		if rr := ask(alice); rr.Code != http.StatusOK {
			t.Fatalf("alice request %d: status %d, want 200", i+1, rr.Code)
		}
	}
	rr := ask(alice)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("alice over burst: status %d, want 429: %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Errorf("429 carries no Retry-After header")
	}
	if !strings.Contains(rr.Body.String(), "quota") {
		t.Errorf("429 body does not name the quota: %s", rr.Body.String())
	}

	// A different principal has its own bucket.
	if rr := ask(bob); rr.Code != http.StatusOK {
		t.Errorf("bob (fresh principal): status %d, want 200", rr.Code)
	}

	// Health and metrics are never quota'd — monitoring must not be
	// starved by a throttled API principal.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.RemoteAddr = alice
	hr := httptest.NewRecorder()
	h.ServeHTTP(hr, req)
	if hr.Code != http.StatusOK {
		t.Errorf("healthz under exhausted quota: status %d, want 200", hr.Code)
	}
}

// TestPrincipalQuotaKey: with auth off a bearer string is chosen by the
// client, so one host rotating strings still spends one bucket; with auth
// on the verified token is the principal, shared by every host that
// presents it.
func TestPrincipalQuotaKey(t *testing.T) {
	s, ds := testServer(t)
	s.PrincipalRate = 0.001
	s.PrincipalBurst = 2
	body, err := json.Marshal(map[string]any{"items": []map[string]any{itemBody(ds.Items[0])}, "k": 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, token func(i int) string, host func(i int) string) {
		t.Helper()
		h := s.Handler()
		for i := range 3 {
			req := httptest.NewRequest(http.MethodPost, "/v2/recommend", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("Authorization", "Bearer "+token(i))
			req.RemoteAddr = host(i)
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			want := http.StatusOK
			if i == 2 {
				want = http.StatusTooManyRequests
			}
			if rr.Code != want {
				t.Fatalf("%s: request %d: status %d, want %d", name, i+1, rr.Code, want)
			}
		}
	}
	run("auth off, one host rotating bearer strings",
		func(i int) string { return fmt.Sprintf("rotated-%d", i) },
		func(int) string { return "192.0.2.9:40000" })
	s.AuthToken = "secret"
	run("auth on, one token from three hosts",
		func(int) string { return "secret" },
		func(i int) string { return fmt.Sprintf("192.0.2.%d:40000", 20+i) })
}

// TestPrincipalBucketsBounded: buckets that have refilled to their burst
// are swept as new principals arrive, so many hosts passing through keep
// the map within twice the buckets still draining, and a swept principal
// is admitted exactly as a new one.
func TestPrincipalBucketsBounded(t *testing.T) {
	s := New(nil)
	s.PrincipalRate = 10
	s.PrincipalBurst = 2
	now := time.Unix(1_700_000_000, 0)
	for i := range 1000 {
		// Each host spends one token, and 100 ms later its bucket is
		// full again.
		if !s.takePrincipal(fmt.Sprintf("host:h%d", i), now) {
			t.Fatalf("host %d refused its first request", i)
		}
		now = now.Add(100 * time.Millisecond)
		if n := len(s.principals); n > 4 {
			t.Fatalf("after %d hosts the quota holds %d buckets", i+1, n)
		}
	}
	// A draining principal is never swept: it keeps its spent tokens.
	if !s.takePrincipal("host:busy", now) || !s.takePrincipal("host:busy", now) || s.takePrincipal("host:busy", now) {
		t.Fatal("busy host: want two admits, then a refusal")
	}
	for i := range 100 {
		s.takePrincipal(fmt.Sprintf("host:later%d", i), now)
	}
	if s.takePrincipal("host:busy", now) {
		t.Fatal("a sweep forgot a draining bucket")
	}
}

// benchmarkRecommend drives POST /v2/recommend through the full
// middleware chain; the CI overhead gate compares the traced and
// untraced variants (enabled must stay within 5% of disabled).
func benchmarkRecommend(b *testing.B, traced bool) {
	s, ds := testServer(b)
	s.TraceAll = traced
	h := s.Handler()
	// k=30 is the paper's serving operating point (and the ssrec-bench
	// default) — the gate measures tracing overhead on a realistic query.
	body, err := json.Marshal(map[string]any{"items": []map[string]any{itemBody(ds.Items[0])}, "k": 30})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v2/recommend", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
	}
}

func BenchmarkRecommendTracingDisabled(b *testing.B) { benchmarkRecommend(b, false) }
func BenchmarkRecommendTracingEnabled(b *testing.B)  { benchmarkRecommend(b, true) }
