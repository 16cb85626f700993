package shardrpc

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
)

// allocatedBy returns the bytes fn allocates on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// bootedServer is a shardd booted from the tiny snapshot, served in
// process.
func bootedServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.LoadFrom(bytes.NewReader(tinySnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Boot(eng); err != nil {
		t.Fatal(err)
	}
	return srv
}

// serveStream feeds body to srv's query stream as frames and returns the
// response.
func serveStream(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, pathQueryStream, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentTypeFrames)
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// TestQueryStreamFrameCap: a shardd refuses a query-stream frame whose
// length prefix is over MaxBodyBytes, and the stream breaks there: the
// oversized ask and the ask behind it are never served, so neither item
// is registered. A length prefix the stream does not back allocates
// nothing for its payload. A frame within the cap is served.
func TestQueryStreamFrameCap(t *testing.T) {
	tc := buildTinyCorpus()
	srv := bootedServer(t)
	ask := func(id uint64, v model.Item) []byte {
		return encodeBody(func(f *frameWriter) { f.ask(id, &askMsg{item: v, opts: core.QueryOptions{K: 3}}) })
	}
	if rec := serveStream(srv, ask(1, tc.fresh[0])); rec.Body.Len() == 0 {
		t.Fatal("an ask within the cap got no answer")
	}

	over := binary.AppendUvarint([]byte{frameAsk}, uint64(srv.MaxBodyBytes)+1)
	if n := allocatedBy(func() { serveStream(srv, append(over, make([]byte, 64)...)) }); n > 1<<20 {
		t.Fatalf("a %d MiB length prefix allocated %d bytes", srv.MaxBodyBytes>>20, n)
	}

	srv.MaxBodyBytes = 1 << 10
	long, late := tc.fresh[1], tc.fresh[2]
	long.Description = strings.Repeat("x", int(srv.MaxBodyBytes))
	if rec := serveStream(srv, append(ask(2, long), ask(3, late)...)); rec.Body.Len() != 0 {
		t.Fatalf("the stream went on past a frame over the cap: %x", rec.Body.Bytes())
	}
	eng := srv.boot.Load().local.Engine()
	if !eng.NeedsRegistration([]model.Item{long}) || !eng.NeedsRegistration([]model.Item{late}) {
		t.Fatal("an ask at or behind the oversized frame was registered")
	}
}

// TestClientFrameCap: a client refuses a terminal frame whose length
// prefix is over maxFrameBytes before it allocates for it, and fails the
// stream: the query in flight learns it was lost.
func TestClientFrameCap(t *testing.T) {
	frame := append(binary.AppendUvarint([]byte{frameTerminal}, maxFrameBytes+1), make([]byte, 64)...)
	var r muxResp
	if n := allocatedBy(func() { r = readAlone(frame, 1) }); n > 1<<20 {
		t.Fatalf("a %d MiB length prefix allocated %d bytes", maxFrameBytes>>20, n)
	}
	if !r.lost || !strings.Contains(r.err.Error(), "cap") {
		t.Fatalf("the query in flight got %+v, want the stream lost to the cap", r)
	}
}
