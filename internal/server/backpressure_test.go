// backpressure_test.go: /v2/observe must push back with 503 + Retry-After
// when the micro-batch queue is saturated, instead of stalling the client
// behind the write lock (regression test for the ROADMAP v2-hardening
// item).
package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
)

// blockingBackend parks every ObserveBatch call until released — a stand-in
// for an engine whose write lock is saturated.
type blockingBackend struct {
	entered chan struct{} // one tick per ObserveBatch entry
	release chan struct{} // closed to unblock them all
}

func (b *blockingBackend) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	b.entered <- struct{}{}
	<-b.release
	return core.BatchReport{Applied: len(batch), Flushed: len(batch)}, nil
}

func (b *blockingBackend) RecommendBatch(ctx context.Context, items []model.Item, opts ...core.Option) ([]core.Result, error) {
	return make([]core.Result, len(items)), nil
}
func (b *blockingBackend) Users() int                     { return 0 }
func (b *blockingBackend) Parallelism() int               { return 1 }
func (b *blockingBackend) IndexView() core.IndexStatsView { return core.IndexStatsView{} }

func TestObserveV2SaturationReturns503(t *testing.T) {
	bb := &blockingBackend{entered: make(chan struct{}, 8), release: make(chan struct{})}
	s := New(bb)
	s.MaxInflightObserve = 1
	s.RetryAfter = 2 * time.Second
	s.BatchSize = 1 // flush per line so the first request blocks immediately
	h := s.Handler()

	line := `{"user_id":"u1","item":{"id":"i1","category":"c"},"timestamp":1}` + "\n"

	// First stream: occupies the only slot, parked inside ObserveBatch.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postRaw(t, h, "/v2/observe", "application/x-ndjson", []byte(line))
	}()
	select {
	case <-bb.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first observe stream never reached the engine")
	}

	// Second stream: must be rejected up front — 503, Retry-After, JSON
	// error body — not queued behind the saturated write path.
	rr := postRaw(t, h, "/v2/observe", "application/x-ndjson", []byte(line))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", rr.Code, rr.Body.String())
	}
	if ra := rr.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	if !strings.Contains(rr.Body.String(), "saturated") {
		t.Fatalf("body = %s", rr.Body.String())
	}

	// Release the first stream: the slot frees and the next request is
	// admitted again (the counter is balanced).
	close(bb.release)
	wg.Wait()
	rr = postRaw(t, h, "/v2/observe", "application/x-ndjson", []byte(line))
	if rr.Code != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", rr.Code)
	}
}

// TestObserveV2RejectionIsNotStreamed: the 503 must be a plain JSON error
// response (so clients and load balancers can react to the status code),
// not a committed NDJSON stream.
func TestObserveV2RejectionIsNotStreamed(t *testing.T) {
	bb := &blockingBackend{entered: make(chan struct{}, 8), release: make(chan struct{})}
	s := New(bb)
	s.MaxInflightObserve = 1
	s.BatchSize = 1
	h := s.Handler()
	line := `{"user_id":"u1","item":{"id":"i1","category":"c"},"timestamp":1}` + "\n"

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postRaw(t, h, "/v2/observe", "application/x-ndjson", []byte(line))
	}()
	<-bb.entered
	defer func() { close(bb.release); wg.Wait() }()

	req := httptest.NewRequest(http.MethodPost, "/v2/observe", strings.NewReader(line))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("rejection Content-Type = %q, want application/json", ct)
	}
}
