// trace_propagation_test.go: end-to-end distributed tracing over the
// real fleet topology — an HTTP API server scatter-gathering over two
// shardd processes on loopback TCP. One /v2/recommend must yield ONE
// trace id whose span tree covers the handler, the router scatter, both
// RPC legs and the shard-side searches, fetchable from the API server
// via GET /v2/trace/{id} AND retained by each shardd's own tracer.
package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/server"
	"ssrec/internal/shard"
	"ssrec/internal/telemetry"
)

func TestTracePropagationAcrossFleet(t *testing.T) {
	// The query_stream scatter is the only RPC leg; the subtest name
	// keeps the scatter mode visible in test output.
	t.Run("stream", func(t *testing.T) {
		lb0 := startLoopback(t, 0, 2)
		lb1 := startLoopback(t, 1, 2)
		c0 := NewClient(lb0.addr, 0, 2)
		c1 := NewClient(lb1.addr, 1, 2)
		router, err := shard.NewRouter(c0, c1)
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		if err := router.HandoffSnapshot(context.Background(), tinySnapshot(t)); err != nil {
			t.Fatalf("handoff: %v", err)
		}
		srv := server.New(router)
		srv.TraceAll = true
		h := srv.Handler()

		body := `{"items":[{"id":"probe","category":"music","producer":"up0","entities":["shared","e1"]}],"k":5}`
		req := httptest.NewRequest("POST", "/v2/recommend", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("recommend: status %d: %s", rec.Code, rec.Body.String())
		}
		traceID := rec.Header().Get(telemetry.TraceHeader)
		if traceID == "" {
			t.Fatalf("no %s header on the traced response", telemetry.TraceHeader)
		}

		treq := httptest.NewRequest("GET", "/v2/trace/"+traceID, nil)
		trec := httptest.NewRecorder()
		h.ServeHTTP(trec, treq)
		if trec.Code != 200 {
			t.Fatalf("trace fetch: status %d: %s", trec.Code, trec.Body.String())
		}
		// Decode the wire form directly: ids are hex strings on the wire.
		var tr struct {
			TraceID string `json:"trace_id"`
			Spans   []struct {
				TraceID string `json:"trace_id"`
				Name    string `json:"name"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(trec.Body.Bytes(), &tr); err != nil {
			t.Fatalf("decode trace: %v", err)
		}
		if tr.TraceID != traceID {
			t.Fatalf("trace id mismatch: fetched %q, header %q", tr.TraceID, traceID)
		}
		counts := map[string]int{}
		for _, sp := range tr.Spans {
			if sp.TraceID != traceID {
				t.Errorf("span %s carries trace %q, want %q", sp.Name, sp.TraceID, traceID)
			}
			counts[sp.Name]++
		}
		for _, want := range []string{"http.request", "router.scatter", "shardd.recommend", "sigtree.search"} {
			if counts[want] == 0 {
				t.Errorf("span %q missing from the fetched tree: %v", want, counts)
			}
		}
		// Both scatter legs must appear: the local leg span and the RPC
		// client span, one per shard, and the shard-side spans shipped
		// back on the terminal lines cover both processes.
		if counts["router.shard"] != 2 {
			t.Errorf("router.shard spans = %d, want 2 (one per shard): %v", counts["router.shard"], counts)
		}
		if counts["rpc.recommend"] != 2 {
			t.Errorf("rpc.recommend spans = %d, want 2 (one per shard): %v", counts["rpc.recommend"], counts)
		}
		if counts["shardd.recommend"] != 2 || counts["sigtree.search"] != 2 {
			t.Errorf("shard-side spans: shardd.recommend=%d sigtree.search=%d, want 2 each",
				counts["shardd.recommend"], counts["sigtree.search"])
		}

		// Each shardd process retained the SAME trace id in its own
		// tracer — the local half of the distributed trace, fetchable
		// from the shard directly via GET /shard/v1/trace/{id}.
		for i, lb := range []*loopback{lb0, lb1} {
			spans := lb.srv.Tracer().Trace(traceID)
			if len(spans) == 0 {
				t.Errorf("shardd %d retained no spans for trace %s", i, traceID)
				continue
			}
			seen := map[string]bool{}
			for _, sp := range spans {
				seen[sp.Name] = true
			}
			if !seen["shardd.recommend"] || !seen["sigtree.search"] {
				t.Errorf("shardd %d trace misses shard-side spans: %v", i, seen)
			}
		}
	})
}

// TestUntracedWireIsClean pins the exactness-neutrality contract at the
// wire: without a trace, an ask or terminal frame carries no trace or
// span bytes — no field, not even an empty one, and no flag bit — so it
// is exactly as long as the frame minus what a trace adds.
func TestUntracedWireIsClean(t *testing.T) {
	const trace = "00000000000000ab-00000000000000cd"
	item := model.Item{ID: "v1", Category: "music", Producer: "up0", Entities: []string{"e1"}, Timestamp: 17}
	encode := func(fn func(*frameWriter)) []byte {
		var fw frameWriter
		fn(&fw)
		return fw.out
	}
	plain := encode(func(f *frameWriter) { f.ask(7, &askMsg{item: item, opts: core.QueryOptions{K: 5}}) })
	traced := encode(func(f *frameWriter) { f.ask(7, &askMsg{item: item, opts: core.QueryOptions{K: 5}, trace: trace}) })
	// The trace adds its length byte and its bytes; the flag bit lives in
	// a byte both frames have.
	if len(traced)-len(plain) != 1+len(trace) || bytes.Contains(plain, []byte(trace)) {
		t.Errorf("untraced ask frame is %d bytes, traced %d: the trace costs %d, want %d", len(plain), len(traced), len(traced)-len(plain), 1+len(trace))
	}
	_, a, err := frameAt(t, plain).ask()
	if err != nil || a.trace != "" || plain[3]&askTraced != 0 {
		t.Errorf("untraced ask frame decodes to trace %q (err %v), flags %#x", a.trace, err, plain[3])
	}

	res := core.Result{ItemID: "v1", Recommendations: []model.Recommendation{{UserID: "u1", Score: 0.5}}}
	spans := []telemetry.SpanData{{TraceID: 0xab, SpanID: 1, Name: "shardd.recommend"}}
	bare := encode(func(f *frameWriter) { f.terminal(&terminal{id: 7, res: res}) })
	withSpans := encode(func(f *frameWriter) { f.terminal(&terminal{id: 7, res: res, spans: spans}) })
	spanBytes := encode(func(f *frameWriter) {
		f.begin()
		f.rec.Uvarint(1)
		f.rec.Uvarint(0xab)
		f.rec.Uvarint(1)
		f.rec.Uvarint(0)
		f.rec.Str("shardd.recommend")
		f.rec.Varint(0)
		f.rec.Varint(0)
		f.rec.Uvarint(0)
		f.out = f.rec.Buf
	})
	if len(withSpans)-len(bare) != len(spanBytes) {
		t.Errorf("untraced terminal frame is %d bytes, traced %d: the spans cost %d, want %d", len(bare), len(withSpans), len(withSpans)-len(bare), len(spanBytes))
	}
	tm, err := frameAt(t, bare).terminal()
	if err != nil || tm.spans != nil || bare[3]&termSpans != 0 {
		t.Errorf("untraced terminal frame decodes to spans %v (err %v), flags %#x", tm.spans, err, bare[3])
	}
}

// frameAt reads the one frame in b, positioned at its payload.
func frameAt(t *testing.T, b []byte) *frameReader {
	t.Helper()
	f := newFrameReader(bytes.NewReader(b), len(b))
	if _, err := f.next(); err != nil {
		t.Fatalf("frame %x: %v", b, err)
	}
	return f
}
