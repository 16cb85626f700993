package shardrpc

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/shard"
)

// heldStreams wraps a client transport: it counts query-stream dials and
// can hold back the failure of the first stream's response body, so the
// client keeps that stream cached — its reader has not seen the peer die
// — until the test releases it. That is the window a loaded host opens
// between a shardd restart and the client noticing.
type heldStreams struct {
	rt      http.RoundTripper
	dials   atomic.Int64
	hold    chan struct{} // closed to let the held body report its failure
	holdOne sync.Once
}

func (h *heldStreams) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := h.rt.RoundTrip(req)
	if req.URL.Path != pathQueryStream {
		return resp, err
	}
	h.dials.Add(1)
	if err == nil {
		h.holdOne.Do(func() { resp.Body = &heldBody{ReadCloser: resp.Body, hold: h.hold} })
	}
	return resp, err
}

type heldBody struct {
	io.ReadCloser
	hold chan struct{}
}

func (b *heldBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		<-b.hold
	}
	return n, err
}

// serveShard starts shard 1 of 2 at addr (":0" picks a port), waiting out
// a rebind of a just-closed address, and boots it from snap.
func serveShard(t *testing.T, addr string, snap []byte) *http.Server {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; ; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv, err := NewServer(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	hs := srv.NewHTTPServer(ln.Addr().String())
	go hs.Serve(ln) //nolint:errcheck // closed by the test
	t.Cleanup(func() { hs.Close() })
	if snap != nil {
		boot := NewClient(ln.Addr().String(), 1, 2)
		defer boot.Close()
		if err := boot.Handoff(context.Background(), snap); err != nil {
			t.Fatalf("handoff: %v", err)
		}
	}
	return hs
}

// awaitAsk waits until ms has a query in flight or has failed, then
// releases the held stream body.
func awaitAsk(ms *muxStream, hold chan struct{}) {
	for {
		ms.mu.Lock()
		busy := len(ms.act) > 0 || ms.broken
		ms.mu.Unlock()
		if busy {
			close(hold)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecommendRetriesStaleStream: after a shardd restarts at the same
// address, the client's cached query stream is dead but not yet noticed.
// The next Recommend must still succeed — dropping the stale stream and
// asking once more on a fresh one — instead of returning a degraded
// answer. A shard that stays dead costs exactly one fresh dial.
func TestRecommendRetriesStaleStream(t *testing.T) {
	snap := tinySnapshot(t)
	tc := buildTinyCorpus()
	ctx := context.Background()
	opts := core.QueryOptions{K: 5}

	for _, restart := range []bool{true, false} {
		hs := serveShard(t, "127.0.0.1:0", snap)
		addr := hs.Addr
		c := NewClient(addr, 1, 2)
		held := &heldStreams{rt: c.hc.Transport, hold: make(chan struct{})}
		c.hc.Transport = held

		want, _, err := c.Recommend(ctx, tc.query, opts, nil)
		if err != nil {
			t.Fatalf("healthy recommend: %v", err)
		}
		c.muxMu.Lock()
		stale := c.mux
		c.muxMu.Unlock()

		hs.Close()
		if restart {
			serveShard(t, addr, snap)
		}
		go awaitAsk(stale, held.hold)
		dials := held.dials.Load()
		got, _, err := c.Recommend(ctx, tc.query, opts, nil)
		switch {
		case restart && err != nil:
			t.Fatalf("recommend after restart: %v (want the stale stream retried)", err)
		case restart && len(got.Recommendations) != len(want.Recommendations):
			t.Fatalf("recommend after restart: %d results, want %d", len(got.Recommendations), len(want.Recommendations))
		case !restart && !errors.Is(err, shard.ErrShardUnavailable):
			t.Fatalf("recommend on a dead shard: err = %v, want ErrShardUnavailable", err)
		}
		if n := held.dials.Load() - dials; n != 1 {
			t.Fatalf("restart=%v: %d fresh stream dials, want 1", restart, n)
		}
		c.Close()
	}
}
