package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/dataset"
	"ssrec/internal/evalx"
	"ssrec/internal/model"
)

func testServer(t testing.TB) (*Server, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.YTubeConfig(0.2)
	cfg.Seed = 31
	ds := dataset.Generate(cfg)
	eng := core.New(core.Config{Categories: ds.Categories, TrainMaxIter: 5, Restarts: 1})
	// Train via the harness (batch path) on the leading third.
	if err := evalx.Train(eng, ds, evalx.Setup{}); err != nil {
		t.Fatalf("train: %v", err)
	}
	return New(eng), ds
}

func post(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr
}

func itemBody(v model.Item) map[string]any {
	return map[string]any{
		"id": v.ID, "category": v.Category, "producer": v.Producer,
		"entities": v.Entities, "timestamp": v.Timestamp,
	}
}

// recommendOne posts a one-item /v2/recommend and returns its result.
func recommendOne(t *testing.T, h http.Handler, item map[string]any, k int) resultV2JSON {
	t.Helper()
	rr := post(t, h, "/v2/recommend", map[string]any{"items": []map[string]any{item}, "k": k})
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	resp := decodeV2(t, rr)
	if len(resp.Results) != 1 {
		t.Fatalf("%d results, want 1", len(resp.Results))
	}
	return resp.Results[0]
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t)
	rr := get(t, s.Handler(), "/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rr.Code)
	}
}

func TestRecommendEndpoint(t *testing.T) {
	s, ds := testServer(t)
	v := ds.Items[len(ds.Items)-1]
	res := recommendOne(t, s.Handler(), itemBody(v), 5)
	if res.ItemID != v.ID || res.Error != nil {
		t.Errorf("item_id = %s, error = %+v", res.ItemID, res.Error)
	}
	if len(res.Recommendations) == 0 || len(res.Recommendations) > 5 {
		t.Errorf("got %d recommendations", len(res.Recommendations))
	}
	for i := 1; i < len(res.Recommendations); i++ {
		if res.Recommendations[i].Score > res.Recommendations[i-1].Score {
			t.Error("unsorted recommendations")
		}
	}
}

// TestRecommendDefaultsAndCaps: k is clamped to MaxK, and an absent k
// defaults to core.DefaultK.
func TestRecommendDefaultsAndCaps(t *testing.T) {
	s, ds := testServer(t)
	s.MaxK = 3
	v := itemBody(ds.Items[len(ds.Items)-1])
	if res := recommendOne(t, s.Handler(), v, 50); len(res.Recommendations) != 3 {
		t.Errorf("MaxK not enforced: %d recommendations, want 3", len(res.Recommendations))
	}
	s.MaxK = 100
	if res := recommendOne(t, s.Handler(), v, 0); len(res.Recommendations) != core.DefaultK {
		t.Errorf("default k: %d recommendations, want %d", len(res.Recommendations), core.DefaultK)
	}
}

// TestRecommendValidation: a body the decoder refuses is a 400 for the
// whole request; an item failing validation is a per-item invalid_item.
func TestRecommendValidation(t *testing.T) {
	s, ds := testServer(t)
	for i, body := range []map[string]any{
		{"items": []map[string]any{itemBody(ds.Items[0])}, "unknown_field": 12},
		{"items": []map[string]any{{"id": "a", "category": "x", "bogus": true}}},
	} {
		if rr := post(t, s.Handler(), "/v2/recommend", body); rr.Code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, rr.Code)
		}
	}
	for i, item := range []map[string]any{
		{"category": "x"}, // missing id
		{"id": "a"},       // missing category
	} {
		res := recommendOne(t, s.Handler(), item, 5)
		if res.Error == nil || res.Error.Code != "invalid_item" {
			t.Errorf("item %d: error = %+v, want invalid_item", i, res.Error)
		}
	}
}

func TestObserveEndpoint(t *testing.T) {
	s, ds := testServer(t)
	before := s.eng.Users()
	v := ds.Items[0]
	rr := postRaw(t, s.Handler(), "/v2/observe", "application/x-ndjson",
		[]byte(observeLine("http-user", v, v.Timestamp+9)))
	out := ndjsonLines(t, rr.Body.String())
	if rr.Code != http.StatusOK || len(out) != 2 || out[0]["status"] != "ok" {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	if s.eng.Users() != before+1 {
		t.Errorf("user count %d, want %d", s.eng.Users(), before+1)
	}
}

// TestObserveValidation: an observation without a user is refused per
// line and leaves the engine untouched.
func TestObserveValidation(t *testing.T) {
	s, ds := testServer(t)
	before := s.eng.Users()
	rr := postRaw(t, s.Handler(), "/v2/observe", "application/x-ndjson",
		[]byte(observeLine("", ds.Items[0], 1)))
	out := ndjsonLines(t, rr.Body.String())
	if len(out) != 2 || out[0]["status"] != "error" {
		t.Fatalf("missing user_id accepted: %s", rr.Body)
	}
	if sum := out[1]; int(sum["applied"].(float64)) != 0 || int(sum["invalid"].(float64)) != 1 {
		t.Fatalf("summary = %v", sum)
	}
	if s.eng.Users() != before {
		t.Errorf("user count %d, want %d", s.eng.Users(), before)
	}
}

// TestItemEndpoint: a fresh item's first /v2/recommend registers it —
// the path that replaced the retired POST /v1/items.
func TestItemEndpoint(t *testing.T) {
	s, ds := testServer(t)
	eng := s.eng.(*core.Engine)
	v := model.Item{ID: "fresh-http-item", Category: ds.Categories[0], Producer: "up0000",
		Entities: []string{"x"}, Timestamp: 99}
	if !eng.NeedsRegistration([]model.Item{v}) {
		t.Fatal("fresh item already registered")
	}
	if res := recommendOne(t, s.Handler(), itemBody(v), 5); res.Error != nil {
		t.Fatalf("fresh item errored: %+v", res.Error)
	}
	if eng.NeedsRegistration([]model.Item{v}) {
		t.Fatal("fresh item not registered by its first query")
	}
}

// TestStatsEndpoint: a single-engine /v2/stats reports the engine's own
// figures and no shard topology.
func TestStatsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rr := get(t, s.Handler(), "/v2/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var resp statsV2Response
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Users != s.eng.Users() || resp.Trees == 0 {
		t.Errorf("degenerate stats: %+v", resp)
	}
	if resp.ShardCount != 0 || resp.Shards != nil {
		t.Errorf("single engine reports shards: %+v", resp)
	}
}

func TestMethodRouting(t *testing.T) {
	s, _ := testServer(t)
	for _, path := range []string{"/v2/recommend", "/v2/observe", "/v2/session"} {
		if rr := get(t, s.Handler(), path); rr.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, rr.Code)
		}
	}
	if rr := post(t, s.Handler(), "/v2/stats", nil); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v2/stats = %d, want 405", rr.Code)
	}
}

func TestInvalidJSON(t *testing.T) {
	s, _ := testServer(t)
	rr := postRaw(t, s.Handler(), "/v2/recommend", "application/json", []byte("{nope"))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rr.Code)
	}
	var body errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || !strings.HasPrefix(body.Error, "invalid JSON") {
		t.Fatalf("error body %q (%v)", rr.Body, err)
	}
}

// TestConcurrentRequests is the -race hammer of the HTTP edge: concurrent
// /v2/recommend readers and /v2/observe writers on one engine.
func TestConcurrentRequests(t *testing.T) {
	s, ds := testServer(t)
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v := ds.Items[(g*25+i)%len(ds.Items)]
				var rr *httptest.ResponseRecorder
				if g%2 == 0 {
					rr = post(t, h, "/v2/recommend", map[string]any{"items": []map[string]any{itemBody(v)}, "k": 5})
				} else {
					rr = postRaw(t, h, "/v2/observe", "application/x-ndjson",
						[]byte(observeLine(fmt.Sprintf("load-user-%d", g), v, v.Timestamp+int64(i))))
				}
				if rr.Code != http.StatusOK {
					t.Errorf("goroutine %d request %d: status %d", g, i, rr.Code)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRetiredV1Routes: the removed v1 routes answer 404 and are counted
// under the shared "unmatched" route label — no per-route series appears
// for them in /metrics.
func TestRetiredV1Routes(t *testing.T) {
	s, ds := testServer(t)
	h := s.Handler()
	retired := []struct{ method, path string }{
		{http.MethodPost, "/v1/recommend"},
		{http.MethodPost, "/v1/observe"},
		{http.MethodPost, "/v1/items"},
		{http.MethodGet, "/v1/stats"},
	}
	for _, r := range retired {
		var rr *httptest.ResponseRecorder
		if r.method == http.MethodGet {
			rr = get(t, h, r.path)
		} else {
			rr = post(t, h, r.path, map[string]any{"item": itemBody(ds.Items[0]), "k": 3})
		}
		if rr.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", r.method, r.path, rr.Code)
		}
	}
	metrics := get(t, h, "/metrics").Body.String()
	want := fmt.Sprintf(`ssrec_http_requests_total{route="unmatched"} %d`, len(retired))
	if !strings.Contains(metrics, want) {
		t.Errorf("/metrics lacks %q:\n%s", want, metrics)
	}
	if strings.Contains(metrics, "/v1/") {
		t.Errorf("/metrics carries a per-route series for a retired route:\n%s", metrics)
	}
}
