// session_test.go: the /v2/session protocol — ordered full-duplex
// serving over h2c, credit-based flow control (a compliant client blocks,
// a violating client is cut off, server-side buffering stays bounded),
// admission 503s, per-session rate pacing, auto-recommend and bearer auth.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/dataset"
	"ssrec/internal/model"
)

// startH2C serves a Server's handler on a loopback listener with
// unencrypted HTTP/2 enabled — what /v2/session needs end to end.
func startH2C(t testing.TB, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	p := new(http.Protocols)
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	hs := &http.Server{Handler: s.Handler(), Protocols: p}
	go hs.Serve(ln) //nolint:errcheck // closed by Cleanup
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

// sessionTestServer builds a trained server plus its dataset once per
// test.
func sessionTestServer(t *testing.T) (*Server, *dataset.Dataset, string) {
	t.Helper()
	s, ds := testServer(t)
	return s, ds, startH2C(t, s)
}

// TestSessionStreamBasics: push observations, interleave asks, receive
// ordered answers and a truthful terminal summary.
func TestSessionStreamBasics(t *testing.T) {
	s, ds, addr := sessionTestServer(t)
	ses, err := DialSession(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	// Collect results concurrently (the protocol is full-duplex).
	var got []core.SessionResult
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for r := range ses.Results() {
			got = append(got, r)
		}
	}()

	parts := ds.Partition(6)
	trainEnd := parts[1][len(parts[1])-1].Timestamp
	pushed, asked := 0, 0
	for _, ir := range ds.Interactions {
		if ir.Timestamp <= trainEnd || pushed >= 40 {
			continue
		}
		v, ok := ds.Item(ir.ItemID)
		if !ok {
			continue
		}
		if err := ses.Push(core.Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp}); err != nil {
			t.Fatalf("push: %v", err)
		}
		pushed++
		if pushed%10 == 0 {
			if err := ses.Ask(ds.Items[pushed%len(ds.Items)], core.WithK(5)); err != nil {
				t.Fatalf("ask: %v", err)
			}
			asked++
		}
	}
	if err := ses.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	<-collected

	if len(got) != asked {
		t.Fatalf("%d results, want %d", len(got), asked)
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if len(r.Recommendations) == 0 || len(r.Recommendations) > 5 {
			t.Fatalf("result %d: %d recs", i, len(r.Recommendations))
		}
		if i > 0 && got[i].Seq <= got[i-1].Seq {
			t.Fatalf("results out of order: seq %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}
	st, ok := ses.Stats()
	if !ok {
		t.Fatal("no terminal summary")
	}
	if st.Pushed != uint64(pushed) || st.Admitted != uint64(pushed) || st.Asked != uint64(asked) {
		t.Fatalf("summary %+v, want %d pushed, %d asked", st, pushed, asked)
	}
	// The serving counters feed /v2/stats.
	if s.sessions.total.Load() != 1 || s.sessions.lines.Load() != int64(pushed+asked) {
		t.Fatalf("server counters: total=%d lines=%d", s.sessions.total.Load(), s.sessions.lines.Load())
	}
}

// TestSessionCreditBlocksCompliantClient: with the engine's write path
// parked (micro-batch admission blocked), credit never retires — a
// compliant client must stop at exactly the window, and server-side
// buffering must not grow past it. Releasing the engine lets the whole
// stream complete.
func TestSessionCreditBlocksCompliantClient(t *testing.T) {
	bb := &blockingBackend{entered: make(chan struct{}, 64), release: make(chan struct{})}
	s := New(bb)
	const window = 8
	s.SessionCredit = window
	s.BatchSize = 2 // flushes early — and parks on the blocked backend
	s.SessionLinger = -1
	addr := startH2C(t, s)

	ses, err := DialSession(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	const total = 3 * window
	var sent atomic.Int64
	pushErr := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			v := model.Item{ID: fmt.Sprintf("blk%d", i), Category: "c"}
			if err := ses.Push(core.Observation{UserID: "slow", Item: v, Timestamp: int64(i)}); err != nil {
				pushErr <- err
				return
			}
			sent.Add(1)
		}
		pushErr <- nil
	}()
	// The first micro-batch reaches the engine and parks.
	select {
	case <-bb.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first micro-batch never reached the engine")
	}
	time.Sleep(500 * time.Millisecond)
	if n := sent.Load(); n != window {
		t.Fatalf("client sent %d lines with a %d window and retirement stalled", n, window)
	}
	if n := s.sessions.lines.Load(); n > window {
		t.Fatalf("server admitted %d lines past the %d credit window", n, window)
	}
	// Unpark the engine: retirement resumes, grants flow, the stream
	// completes and closes cleanly.
	close(bb.release)
	if err := <-pushErr; err != nil {
		t.Fatalf("push after release: %v", err)
	}
	if err := ses.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st, ok := ses.Stats()
	if !ok || st.Pushed != total || st.Admitted != total {
		t.Fatalf("summary %+v, want %d pushed+admitted", st, total)
	}
}

// TestSessionBatchClampPreventsStarvation: a micro-batch larger than the
// credit window can never fill (with linger off) — the handler must clamp
// it to the window or a compliant client starves of credit forever
// (regression: -batch-size 512 -session-credit 256 -session-linger -1
// deadlocked every session).
func TestSessionBatchClampPreventsStarvation(t *testing.T) {
	s, ds, addr := sessionTestServer(t)
	const window = 8
	s.SessionCredit = window
	s.BatchSize = 1024 // without the clamp this can never flush
	s.SessionLinger = -1

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ses, err := DialSession(ctx, addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	const total = 3 * window
	for i := 0; i < total; i++ {
		v := ds.Items[i%len(ds.Items)]
		if err := ses.Push(core.Observation{UserID: "clamp", Item: v, Timestamp: int64(i)}); err != nil {
			t.Fatalf("push %d: %v (credit starved?)", i, err)
		}
	}
	if err := ses.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st, ok := ses.Stats()
	if !ok || st.Admitted != total {
		t.Fatalf("summary %+v, want %d admitted", st, total)
	}
	if st.Batches != total/window {
		t.Fatalf("summary %+v: want %d flushes of the clamped %d-batch", st, total/window, window)
	}
}

// TestSessionFlowControlViolation: a client that ignores credit is cut
// off with a flow_control error instead of growing server-side buffers.
func TestSessionFlowControlViolation(t *testing.T) {
	// The backend parks every flush until the session is torn down, so no
	// observation credit is retired (and none re-granted) during the
	// flood: the kill must land on exactly the first line past the window.
	s := New(stalledBackend{})
	addr := startH2C(t, s)
	const window = 8
	s.SessionCredit = window
	s.BatchSize = 1024
	s.SessionLinger = -1

	// Hand-rolled non-compliant client: floods 4× the window without
	// reading a single credit line.
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "http://"+addr+"/v2/session", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := NewH2CClient().Do(req)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer resp.Body.Close()
	go func() {
		enc := json.NewEncoder(pw)
		for i := 0; i < 4*window; i++ {
			line := sessionLineIn{Obs: &observeLineJSON{UserID: "flood",
				Item: itemJSON{ID: "i1", Category: "c"}, Timestamp: int64(i)}}
			if enc.Encode(line) != nil {
				return
			}
		}
	}()

	sawViolation := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line sessionLineOut
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad server line %q: %v", sc.Text(), err)
		}
		if line.Error != nil {
			if line.Error.Code != "flow_control" {
				t.Fatalf("error code %q, want flow_control", line.Error.Code)
			}
			sawViolation = true
			break
		}
	}
	if !sawViolation {
		t.Fatal("server never cut off the flooding client")
	}
	if got := s.sessions.violations.Load(); got != 1 {
		t.Fatalf("violations counter = %d, want 1", got)
	}
	if n := s.sessions.lines.Load(); n > window {
		t.Fatalf("server admitted %d lines past the window before the kill", n)
	}
	pw.Close()
}

// stalledBackend parks every ObserveBatch until its context ends, so a
// session over it never completes a flush.
type stalledBackend struct{}

func (stalledBackend) ObserveBatch(ctx context.Context, _ []core.Observation) (core.BatchReport, error) {
	<-ctx.Done()
	return core.BatchReport{}, ctx.Err()
}

func (stalledBackend) RecommendBatch(ctx context.Context, items []model.Item, _ ...core.Option) ([]core.Result, error) {
	return make([]core.Result, len(items)), nil
}
func (stalledBackend) Users() int                     { return 0 }
func (stalledBackend) Parallelism() int               { return 1 }
func (stalledBackend) IndexView() core.IndexStatsView { return core.IndexStatsView{} }

// TestSessionAdmission503 shares the overload path with /v2/observe: the
// Retry-After formatting must be byte-identical (regression-guards the
// shared rejectOverloaded helper).
func TestSessionAdmission503(t *testing.T) {
	s, _, addr := sessionTestServer(t)
	s.MaxSessions = 1
	s.RetryAfter = 3 * time.Second

	first, err := DialSession(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer first.Close()

	resp, err := NewH2CClient().Post("http://"+addr+"/v2/session", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatalf("second dial: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second session status %d, want 503", resp.StatusCode)
	}
	sessionRA := resp.Header.Get("Retry-After")
	if sessionRA != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", sessionRA)
	}
	if s.sessions.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d", s.sessions.rejected.Load())
	}

	// The observe path must produce the identical header through the same
	// helper.
	obsResp := httpGetRetryAfter(t, s)
	if obsResp != sessionRA {
		t.Fatalf("observe Retry-After %q != session Retry-After %q (rejectOverloaded drifted)", obsResp, sessionRA)
	}
}

// httpGetRetryAfter saturates /v2/observe and returns the rejection's
// Retry-After header.
func httpGetRetryAfter(t *testing.T, s *Server) string {
	t.Helper()
	old := s.MaxInflightObserve
	s.MaxInflightObserve = 1
	s.inflightObserve.Add(1) // simulate one stream in flight
	defer func() { s.inflightObserve.Add(-1); s.MaxInflightObserve = old }()
	rr := postRaw(t, s.Handler(), "/v2/observe", "application/x-ndjson",
		[]byte(`{"user_id":"u","item":{"id":"i","category":"c"}}`+"\n"))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("observe status %d, want 503", rr.Code)
	}
	return rr.Header().Get("Retry-After")
}

// TestSessionAutoRecommend: ?auto_k answers every first-seen pushed item
// without an ask.
func TestSessionAutoRecommend(t *testing.T) {
	_, ds, addr := sessionTestServer(t)
	ses, err := DialSession(context.Background(), addr, WithDialAutoRecommend(3))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var auto []core.SessionResult
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for r := range ses.Results() {
			auto = append(auto, r)
		}
	}()
	seen := map[string]bool{}
	parts := ds.Partition(6)
	trainEnd := parts[1][len(parts[1])-1].Timestamp
	n := 0
	for _, ir := range ds.Interactions {
		if ir.Timestamp <= trainEnd || n >= 24 {
			continue
		}
		v, ok := ds.Item(ir.ItemID)
		if !ok {
			continue
		}
		seen[v.ID] = true
		if err := ses.Push(core.Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp}); err != nil {
			t.Fatalf("push: %v", err)
		}
		n++
	}
	if err := ses.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	<-collected
	if len(auto) != len(seen) {
		t.Fatalf("%d auto answers, want %d distinct items", len(auto), len(seen))
	}
	for _, r := range auto {
		if !r.Auto {
			t.Fatalf("non-auto result %+v on an ask-free session", r)
		}
		if r.Err != nil || len(r.Recommendations) == 0 || len(r.Recommendations) > 3 {
			t.Fatalf("auto result %s: err=%v recs=%d", r.ItemID, r.Err, len(r.Recommendations))
		}
	}
}

// TestSessionAutoRecommendCreditAccounting: an auto answer has no command
// line of its own, so it must NOT retire credit — total re-grants can
// never exceed the command lines actually sent (regression: retiring per
// result drifted the window open under ?auto_k and disarmed the
// flow-control check).
func TestSessionAutoRecommendCreditAccounting(t *testing.T) {
	s, ds, addr := sessionTestServer(t)
	s.SessionCredit = 4
	s.BatchSize = 2 // frequent flushes → frequent retirement → frequent grants

	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost,
		"http://"+addr+"/v2/session?auto_k=2", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := NewH2CClient().Do(req)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer resp.Body.Close()

	// Raw compliant-ish client: sends lines as credit allows, reading
	// everything and summing the grants.
	const lines = 16
	parts := ds.Partition(6)
	trainEnd := parts[1][len(parts[1])-1].Timestamp
	var distinct []itemJSON
	for _, v := range ds.Items {
		if v.Timestamp > trainEnd && len(distinct) < lines {
			distinct = append(distinct, itemJSON{ID: v.ID, Category: v.Category, Producer: v.Producer,
				Entities: v.Entities, Timestamp: v.Timestamp})
		}
	}
	if len(distinct) < lines {
		t.Skip("fixture too small")
	}
	granted, initial := 0, -1
	sent := 0
	enc := json.NewEncoder(pw)
	sc := bufio.NewScanner(resp.Body)
	send := func(n int) {
		for ; sent < n && sent < lines; sent++ {
			line := sessionLineIn{Obs: &observeLineJSON{UserID: fmt.Sprintf("acct%d", sent),
				Item: distinct[sent], Timestamp: int64(sent)}}
			if err := enc.Encode(line); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
	}
	for sc.Scan() {
		var line sessionLineOut
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Credit > 0:
			if initial < 0 {
				initial = line.Credit
			} else {
				granted += line.Credit
			}
			send(sent + line.Credit)
		case line.Error != nil:
			t.Fatalf("session error: %+v", line.Error)
		case line.Done != nil:
			if granted > lines {
				t.Fatalf("server re-granted %d credits for %d command lines (auto answers must not retire credit)", granted, lines)
			}
			if line.Done.Answered == 0 {
				t.Fatal("auto_k session answered nothing")
			}
			return
		}
		if sent == lines {
			pw.Close() // half-close once everything is on the wire
		}
	}
	t.Fatal("stream ended without a done line")
}

// TestSessionRateLimit: the token bucket paces the command stream and the
// throttled time surfaces in the counters.
func TestSessionRateLimit(t *testing.T) {
	s, ds, addr := sessionTestServer(t)
	s.SessionRate = 50 // 50 lines/sec
	s.SessionBurst = 1

	ses, err := DialSession(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	go func() {
		for range ses.Results() {
		}
	}()
	start := time.Now()
	const lines = 12
	for i := 0; i < lines; i++ {
		v := ds.Items[i%len(ds.Items)]
		if err := ses.Push(core.Observation{UserID: "paced", Item: v, Timestamp: int64(i)}); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	if err := ses.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	elapsed := time.Since(start)
	// 12 lines at 50/s with burst 1 needs >= 11/50 s of pacing; allow
	// generous slack for h2 batching ahead of the limiter.
	if elapsed < 100*time.Millisecond {
		t.Fatalf("12 paced lines finished in %v — limiter inactive", elapsed)
	}
	if s.sessions.throttleNs.Load() == 0 {
		t.Fatal("throttle counter never advanced")
	}
}

// TestV2Auth: with -auth-token set, every /v2 route (session included)
// requires the bearer token; only /healthz and /metrics stay open.
func TestV2Auth(t *testing.T) {
	s, ds, addr := sessionTestServer(t)
	const token = "hunter2-but-longer"
	s.AuthToken = token
	h := s.Handler()

	// Tokenless → 401 with a challenge, on the read AND write paths.
	rr := get(t, h, "/v2/stats")
	if rr.Code != http.StatusUnauthorized {
		t.Fatalf("GET /v2/stats without token = %d, want 401", rr.Code)
	}
	if rr.Header().Get("WWW-Authenticate") == "" {
		t.Fatal("GET /v2/stats: missing WWW-Authenticate challenge")
	}
	rr = post(t, h, "/v2/recommend", map[string]any{"items": []map[string]any{itemBody(ds.Items[0])}})
	if rr.Code != http.StatusUnauthorized {
		t.Fatalf("POST /v2/recommend without token = %d, want 401", rr.Code)
	}
	before := s.eng.Users()
	rr = postRaw(t, h, "/v2/observe", "application/x-ndjson", []byte(observeLine("intruder", ds.Items[0], 1)))
	if rr.Code != http.StatusUnauthorized {
		t.Fatalf("POST /v2/observe without token = %d, want 401", rr.Code)
	}
	if s.eng.Users() != before {
		t.Fatal("tokenless observe reached the engine")
	}
	if _, err := DialSession(context.Background(), addr); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("tokenless session dial = %v, want 401", err)
	}

	// Wrong token → 401.
	req, _ := http.NewRequest(http.MethodGet, "/v2/stats", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	rw := newRecorder(t, h, req)
	if rw.Code != http.StatusUnauthorized {
		t.Fatalf("wrong token = %d, want 401", rw.Code)
	}

	// Right token → served, including a full session round trip.
	req, _ = http.NewRequest(http.MethodGet, "/v2/stats", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	rw = newRecorder(t, h, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("authed /v2/stats = %d, want 200", rw.Code)
	}
	ses, err := DialSession(context.Background(), addr, WithDialAuth(token))
	if err != nil {
		t.Fatalf("authed session dial: %v", err)
	}
	go func() {
		for range ses.Results() {
		}
	}()
	if err := ses.Ask(ds.Items[0], core.WithK(3)); err != nil {
		t.Fatalf("authed ask: %v", err)
	}
	if err := ses.Close(); err != nil {
		t.Fatalf("authed close: %v", err)
	}

	// The write path serves with the token.
	req, _ = http.NewRequest(http.MethodPost, "/v2/observe", strings.NewReader(observeLine("member", ds.Items[0], 1)))
	req.Header.Set("Authorization", "Bearer "+token)
	if rw = newRecorder(t, h, req); rw.Code != http.StatusOK {
		t.Fatalf("authed /v2/observe = %d, want 200", rw.Code)
	}

	// Only the liveness probe and the scrape endpoint stay open.
	for _, path := range []string{"/healthz", "/metrics"} {
		if rr := get(t, h, path); rr.Code != http.StatusOK {
			t.Fatalf("tokenless %s = %d, want 200", path, rr.Code)
		}
	}
}

func newRecorder(t *testing.T, h http.Handler, req *http.Request) *recorderResult {
	t.Helper()
	rr := &recorderResult{header: make(http.Header)}
	h.ServeHTTP(rr, req)
	return rr
}

// recorderResult is a minimal ResponseWriter for header/status checks.
type recorderResult struct {
	header http.Header
	Code   int
	body   []byte
}

func (r *recorderResult) Header() http.Header { return r.header }
func (r *recorderResult) WriteHeader(c int)   { r.Code = c }
func (r *recorderResult) Write(b []byte) (int, error) {
	if r.Code == 0 {
		r.Code = http.StatusOK
	}
	r.body = append(r.body, b...)
	return len(b), nil
}

// TestSessionQueueBoundWithoutConsumer pins the server-side memory bound
// of the session machinery itself: with the Results channel never drained,
// the pump stalls and command admission stops at queue+buffer capacity —
// no unbounded growth, and draining recovers everything.
func TestSessionQueueBoundWithoutConsumer(t *testing.T) {
	eng := core.New(core.Config{Categories: []string{"c"}, TrainMaxIter: 2, Restarts: 1, Seed: 3})
	corpus, irs := tinyTrainCorpus()
	byID := map[string]model.Item{}
	for _, v := range corpus {
		byID[v.ID] = v
	}
	if err := eng.Train(corpus, irs, func(id string) (model.Item, bool) {
		v, ok := byID[id]
		return v, ok
	}); err != nil {
		t.Fatalf("train: %v", err)
	}

	const queue, results = 4, 1
	ses := core.NewSession(context.Background(), eng,
		core.WithSessionQueue(queue), core.WithSessionResults(results), core.WithSessionBatch(1))
	var accepted atomic.Int64
	go func() {
		for i := 0; ; i++ {
			if err := ses.Ask(corpus[i%len(corpus)], core.WithK(2)); err != nil {
				return
			}
			accepted.Add(1)
		}
	}()
	time.Sleep(400 * time.Millisecond)
	// Bound: results buffer + one in deliver + queue + one in enqueue.
	if n := accepted.Load(); n > int64(queue+results+3) {
		t.Fatalf("%d asks accepted with no consumer (queue=%d results=%d) — buffering unbounded", n, queue, results)
	}
	// Draining recovers the session; Close completes cleanly.
	drained := make(chan int)
	go func() {
		n := 0
		for range ses.Results() {
			n++
		}
		drained <- n
	}()
	time.Sleep(100 * time.Millisecond)
	if err := ses.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	n := <-drained
	if uint64(n) != ses.Stats().Answered || n == 0 {
		t.Fatalf("drained %d results, stats say %d answered", n, ses.Stats().Answered)
	}
}

// tinyTrainCorpus builds a minimal deterministic corpus for the queue-
// bound test.
func tinyTrainCorpus() ([]model.Item, []model.Interaction) {
	var items []model.Item
	var irs []model.Interaction
	for i := 0; i < 30; i++ {
		v := model.Item{ID: fmt.Sprintf("q%02d", i), Category: "c",
			Producer: fmt.Sprintf("p%d", i%2), Entities: []string{"e", fmt.Sprintf("e%d", i%3)}, Timestamp: int64(i + 1)}
		items = append(items, v)
		for u := 0; u < 6; u++ {
			if (i+u)%2 == 0 {
				irs = append(irs, model.Interaction{UserID: fmt.Sprintf("u%d", u), ItemID: v.ID, Timestamp: int64(i + 2)})
			}
		}
	}
	return items, irs
}
