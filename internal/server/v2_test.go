package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
)

func postRaw(t *testing.T, h http.Handler, path, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func decodeV2(t *testing.T, rr *httptest.ResponseRecorder) recommendV2Response {
	t.Helper()
	var resp recommendV2Response
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v\n%s", err, rr.Body.String())
	}
	return resp
}

func TestRecommendV2Batch(t *testing.T) {
	s, ds := testServer(t)
	items := []map[string]any{itemBody(ds.Items[0]), itemBody(ds.Items[1]), itemBody(ds.Items[2])}
	rr := post(t, s.Handler(), "/v2/recommend", map[string]any{"items": items, "k": 5})
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	resp := decodeV2(t, rr)
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	for i, res := range resp.Results {
		if res.Error != nil {
			t.Fatalf("result %d errored: %+v", i, res.Error)
		}
		if res.ItemID != ds.Items[i].ID {
			t.Fatalf("result %d item %q, want %q", i, res.ItemID, ds.Items[i].ID)
		}
		if len(res.Recommendations) > 5 {
			t.Fatalf("result %d has %d recs, want <= 5", i, len(res.Recommendations))
		}
	}
	if rr.Header().Get("X-Request-ID") == "" {
		t.Error("missing X-Request-ID header")
	}
}

// TestRecommendV2MatchesEngine: the batch protocol returns exactly what
// the engine's own RecommendBatch returns, scores bit-for-bit.
func TestRecommendV2MatchesEngine(t *testing.T) {
	s, ds := testServer(t)
	h := s.Handler()
	for _, v := range ds.Items[:5] {
		want, err := s.eng.RecommendBatch(context.Background(), []model.Item{v}, core.WithK(7))
		if err != nil || want[0].Err != nil {
			t.Fatalf("engine: %v / %v", err, want[0].Err)
		}
		got := recommendOne(t, h, itemBody(v), 7).Recommendations
		if len(got) != len(want[0].Recommendations) {
			t.Fatalf("item %s: wire %d recs, engine %d", v.ID, len(got), len(want[0].Recommendations))
		}
		for i, rec := range want[0].Recommendations {
			if got[i] != (recommendationJSON{UserID: rec.UserID, Score: rec.Score}) {
				t.Fatalf("item %s rec %d: wire %+v, engine %+v", v.ID, i, got[i], rec)
			}
		}
	}
}

func TestRecommendV2PerItemErrors(t *testing.T) {
	s, ds := testServer(t)
	items := []map[string]any{
		itemBody(ds.Items[0]),
		{"id": "alien", "category": "no-such-category", "producer": "p"},
		{"id": "", "category": "x"}, // invalid: missing id
	}
	rr := post(t, s.Handler(), "/v2/recommend", map[string]any{"items": items, "k": 5})
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	resp := decodeV2(t, rr)
	if resp.Results[0].Error != nil {
		t.Fatalf("valid item errored: %+v", resp.Results[0].Error)
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != "unknown_category" {
		t.Fatalf("results[1].Error = %+v, want unknown_category", resp.Results[1].Error)
	}
	if resp.Results[2].Error == nil || resp.Results[2].Error.Code != "invalid_item" {
		t.Fatalf("results[2].Error = %+v, want invalid_item", resp.Results[2].Error)
	}
}

func TestRecommendV2OversizedBatch(t *testing.T) {
	s, ds := testServer(t)
	s.MaxBatch = 2
	items := []map[string]any{itemBody(ds.Items[0]), itemBody(ds.Items[1]), itemBody(ds.Items[2])}
	rr := post(t, s.Handler(), "/v2/recommend", map[string]any{"items": items})
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rr.Code, rr.Body.String())
	}
}

func TestRecommendV2EmptyItems(t *testing.T) {
	s, _ := testServer(t)
	rr := post(t, s.Handler(), "/v2/recommend", map[string]any{"items": []any{}})
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rr.Code)
	}
}

// TestRecommendV2CancelledContext: a request whose context is already
// cancelled reports per-item cancellation instead of fabricated results.
func TestRecommendV2CancelledContext(t *testing.T) {
	s, ds := testServer(t)
	body, _ := json.Marshal(map[string]any{"items": []map[string]any{itemBody(ds.Items[0])}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v2/recommend", bytes.NewReader(body)).WithContext(ctx)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	resp := decodeV2(t, rr)
	if len(resp.Results) != 1 || resp.Results[0].Error == nil || resp.Results[0].Error.Code != "cancelled" {
		t.Fatalf("results = %+v, want cancelled error", resp.Results)
	}
}

// ndjsonLines splits an NDJSON response body.
func ndjsonLines(t *testing.T, body string) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

func observeLine(userID string, v model.Item, ts int64) string {
	b, _ := json.Marshal(map[string]any{"user_id": userID, "item": itemBody2(v), "timestamp": ts})
	return string(b)
}

func itemBody2(v model.Item) map[string]any {
	return map[string]any{
		"id": v.ID, "category": v.Category, "producer": v.Producer,
		"entities": v.Entities, "timestamp": v.Timestamp,
	}
}

func TestObserveV2BulkIngest(t *testing.T) {
	s, ds := testServer(t)
	s.BatchSize = 4 // force several micro-batches
	var lines []string
	n := 10
	for i := 0; i < n; i++ {
		v := ds.Items[i%len(ds.Items)]
		lines = append(lines, observeLine(fmt.Sprintf("user%02d", i), v, int64(1000+i)))
	}
	rr := postRaw(t, s.Handler(), "/v2/observe", "application/x-ndjson", []byte(strings.Join(lines, "\n")+"\n"))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	out := ndjsonLines(t, rr.Body.String())
	if len(out) != n+1 {
		t.Fatalf("%d response lines, want %d statuses + summary", len(out), n+1)
	}
	for i := 0; i < n; i++ {
		if out[i]["status"] != "ok" {
			t.Fatalf("line %d status = %v", i+1, out[i])
		}
		if int(out[i]["line"].(float64)) != i+1 {
			t.Fatalf("line numbering off: %v", out[i])
		}
	}
	sum := out[n]
	if sum["status"] != "done" || int(sum["applied"].(float64)) != n {
		t.Fatalf("summary = %v", sum)
	}
	if batches := int(sum["batches"].(float64)); batches != 3 {
		t.Fatalf("batches = %d, want 3 (10 lines / batch size 4)", batches)
	}
}

func TestObserveV2MalformedLines(t *testing.T) {
	s, ds := testServer(t)
	body := strings.Join([]string{
		observeLine("u1", ds.Items[0], 1),
		"{not json",
		observeLine("", ds.Items[0], 2), // invalid: empty user
		observeLine("u2", ds.Items[1], 3),
	}, "\n")
	rr := postRaw(t, s.Handler(), "/v2/observe", "application/x-ndjson", []byte(body))
	out := ndjsonLines(t, rr.Body.String())
	if len(out) != 5 {
		t.Fatalf("%d lines, want 4 statuses + summary:\n%s", len(out), rr.Body.String())
	}
	// Statuses stream in processing order (decode failures report
	// immediately, batched entries at flush); the line field keys them
	// back to input order.
	byLine := map[int]map[string]any{}
	for _, m := range out[:4] {
		byLine[int(m["line"].(float64))] = m
	}
	if byLine[1]["status"] != "ok" || byLine[4]["status"] != "ok" {
		t.Fatalf("valid lines not ok: %v / %v", byLine[1], byLine[4])
	}
	if byLine[2]["status"] != "error" {
		t.Fatalf("malformed line accepted: %v", byLine[2])
	}
	errObj := byLine[2]["error"].(map[string]any)
	if errObj["code"] != "bad_json" {
		t.Fatalf("malformed line code = %v", errObj["code"])
	}
	if byLine[3]["status"] != "error" {
		t.Fatalf("invalid observation accepted: %v", byLine[3])
	}
	if code := byLine[3]["error"].(map[string]any)["code"]; code != "invalid_observation" {
		t.Fatalf("invalid observation code = %v", code)
	}
	sum := out[4]
	if int(sum["applied"].(float64)) != 2 || int(sum["invalid"].(float64)) != 2 {
		t.Fatalf("summary = %v", sum)
	}
}

func TestObserveV2ChangesEngineState(t *testing.T) {
	s, ds := testServer(t)
	before := s.eng.Users()
	var lines []string
	for i := 0; i < 6; i++ {
		lines = append(lines, observeLine(fmt.Sprintf("brand-new-user-%d", i), ds.Items[i], int64(i)))
	}
	rr := postRaw(t, s.Handler(), "/v2/observe", "application/x-ndjson", []byte(strings.Join(lines, "\n")))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if after := s.eng.Users(); after != before+6 {
		t.Fatalf("users %d -> %d, want +6", before, after)
	}
}

func TestStatsV2(t *testing.T) {
	s, ds := testServer(t)
	h := s.Handler()
	// Generate some traffic so the latency counters are non-empty.
	post(t, h, "/v2/recommend", map[string]any{"items": []map[string]any{itemBody(ds.Items[0])}})
	rr := get(t, h, "/v2/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var resp statsV2Response
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Users == 0 || resp.Trees == 0 {
		t.Fatalf("index stats empty: %+v", resp)
	}
	if resp.BatchSize != s.BatchSize || resp.MaxK != s.MaxK || resp.MaxBatch != s.MaxBatch {
		t.Fatalf("serving config mismatch: %+v", resp)
	}
	rs, ok := resp.Requests["POST /v2/recommend"]
	if !ok || rs.Count < 1 {
		t.Fatalf("missing recommend route counters: %+v", resp.Requests)
	}
}

func TestRequestIDPassthrough(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-ID", "my-trace-42")
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if got := rr.Header().Get("X-Request-ID"); got != "my-trace-42" {
		t.Fatalf("X-Request-ID = %q, want passthrough", got)
	}
}
