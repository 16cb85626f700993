// fuzz_test.go fuzzes the two wire-decoding surfaces of the v2 protocol:
// the /v2/observe NDJSON line parser and the /v2/recommend request
// decoder. The harness drives the real handlers over an UNTRAINED engine —
// construction is cheap enough for the fuzz loop and every decode path,
// validation branch and error mapping still executes (valid recommends
// surface as not_trained). The invariants: no panic, and the response is
// always well-formed protocol output (parseable NDJSON statuses with a
// trailing summary; a JSON object on every /v2/recommend status).
//
// Seed corpus: the malformed-input cases of v2_test.go plus boundary
// shapes (empty line, huge line, nested junk). Run the mutation loop with
//
//	go test ./internal/server -fuzz FuzzObserveV2Line -fuzztime 10s
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ssrec/internal/core"
)

// fuzzHandler builds one untrained server shared by all fuzz iterations
// (handlers are concurrency-safe; the engine just reports not_trained on
// queries and absorbs observations into profiles).
var fuzzHandler = sync.OnceValue(func() http.Handler {
	s := New(core.New(core.Config{Categories: []string{"cat00", "cat01"}}))
	s.BatchSize = 3 // force micro-batch boundaries inside small inputs
	return s.Handler()
})

func FuzzObserveV2Line(f *testing.F) {
	// Seeds: the v2_test malformed-line cases and protocol boundaries.
	f.Add(`{"user_id":"u1","item":{"id":"x","category":"cat00"},"timestamp":1}`)
	f.Add(`{not json`)
	f.Add(`{"user_id":"","item":{"id":"x","category":"cat00"},"timestamp":2}`)
	f.Add(`{"user_id":"u2","item":{"id":"","category":""},"timestamp":3}`)
	f.Add(``)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`{"user_id":"u3","item":{"id":"y","category":"cat01","entities":["a","b"]},"timestamp":-9}`)
	f.Add(`{"user_id":"` + strings.Repeat("x", 4096) + `","item":{"id":"big","category":"cat00"}}`)
	f.Add("{\"user_id\":\"u\\u0000\",\"item\":{\"id\":\"z\",\"category\":\"cat00\"}}")

	f.Fuzz(func(t *testing.T, line string) {
		// One fuzzed line sandwiched between two known-good lines so batch
		// assembly and flush boundaries around the hostile input execute.
		body := strings.Join([]string{
			`{"user_id":"pre","item":{"id":"pre","category":"cat00"},"timestamp":1}`,
			line,
			`{"user_id":"post","item":{"id":"post","category":"cat01"},"timestamp":2}`,
		}, "\n")
		req := httptest.NewRequest(http.MethodPost, "/v2/observe", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		rr := httptest.NewRecorder()
		fuzzHandler().ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d", rr.Code)
		}
		// Every response line must be valid JSON with a status field, and
		// the stream must end with the "done" summary.
		sc := bufio.NewScanner(strings.NewReader(rr.Body.String()))
		sc.Buffer(make([]byte, 0, 64*1024), 1<<21)
		var last map[string]any
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatalf("unparseable response line %q: %v", sc.Text(), err)
			}
			st, _ := m["status"].(string)
			if st != "ok" && st != "error" && st != "done" {
				t.Fatalf("unknown status in %v", m)
			}
			last = m
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("response scan: %v", err)
		}
		if last == nil || last["status"] != "done" {
			t.Fatalf("stream did not end with a summary: %v\n%s", last, rr.Body.String())
		}
	})
}

func FuzzRecommendV2Decode(f *testing.F) {
	// Seeds: the v2_test request shapes, valid and malformed.
	f.Add(`{"items":[{"id":"x","category":"cat00","producer":"p","entities":["e"]}],"k":5}`)
	f.Add(`{nope`)
	f.Add(`{"items":[]}`)
	f.Add(`{"items":[{"id":"","category":"x"}]}`)
	f.Add(`{"items":[{"id":"alien","category":"no-such-category","producer":"p"}],"k":5}`)
	f.Add(`{"item": {"id":"v1-shaped","category":"cat00"}}`)
	f.Add(`{"items":[{"id":"x","category":"cat00"}],"k":-3,"parallelism":99,"expansion":false}`)
	f.Add(`{"items":` + strings.Repeat(`[`, 64) + strings.Repeat(`]`, 64) + `}`)
	f.Add(`{"items":[{"id":"dup","category":"cat00"},{"id":"dup","category":"cat00"}],"k":1000000}`)

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v2/recommend", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		fuzzHandler().ServeHTTP(rr, req)
		switch rr.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("unexpected status %d for %q", rr.Code, body)
		}
		var any map[string]any
		if err := json.Unmarshal(rr.Body.Bytes(), &any); err != nil {
			t.Fatalf("non-JSON response (%d): %q", rr.Code, rr.Body.String())
		}
		if rr.Code == http.StatusOK {
			var resp recommendV2Response
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 response not a recommendV2Response: %v", err)
			}
			if len(resp.Results) == 0 {
				t.Fatalf("200 with no results: %q", rr.Body.String())
			}
		}
	})
}
