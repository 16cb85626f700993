// mux_auth_test.go covers the multiplexed query stream (the scatter leg)
// and the shared bearer-token layer: mux results must match the engine's
// per-item RecommendBound bit-for-bit, a shardd without the endpoint must
// fail like any other 4xx (no silent fallback), cancellation must stay a
// context error, and every endpoint must 401 without the token.
package shardrpc

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/shard"
)

// bootClient dials a loopback shard and hands it the tiny snapshot.
func bootClient(t *testing.T, lb *loopback) *Client {
	t.Helper()
	c := NewClient(lb.addr, 0, 1)
	t.Cleanup(c.Close)
	if err := c.Handoff(context.Background(), tinySnapshot(t)); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	return c
}

// TestMuxMatchesPerItem: every query over the multiplexed stream returns
// exactly the ranking of the engine's own per-item RecommendBound, issued
// in the same order (each query registers its item on both sides).
func TestMuxMatchesPerItem(t *testing.T) {
	tc := buildTinyCorpus()
	lb := startLoopback(t, 0, 1)
	muxed := bootClient(t, lb)
	ref, err := core.LoadFrom(bytes.NewReader(tinySnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	o := core.ResolveOptions(core.WithK(5))
	for i, v := range append(tc.fresh, tc.query) {
		got, gerr := muxed.Recommend(ctx, v, o, nil)
		want, werr := ref.RecommendBound(ctx, v, o, nil)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("query %d: err %v vs %v", i, gerr, werr)
		}
		if !reflect.DeepEqual(got.Recommendations, want.Recommendations) {
			t.Fatalf("query %d: mux result diverged\n mux    %v\n engine %v", i, got.Recommendations, want.Recommendations)
		}
	}
}

// TestMuxConcurrentQueries hammers one stream with concurrent asks: every
// answer must land on its own caller.
func TestMuxConcurrentQueries(t *testing.T) {
	tc := buildTinyCorpus()
	lb := startLoopback(t, 0, 1)
	c := bootClient(t, lb)
	ref, err := core.LoadFrom(bytes.NewReader(tinySnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	// Register the probe items up front, in one fixed order on both
	// deployments: concurrent queries would otherwise register them in
	// arbitrary order, and registration advances the expander (results
	// are deterministic only for a fixed registration order).
	ref.RegisterItemBatch(tc.fresh)
	if _, err := c.RegisterItems(context.Background(), tc.fresh); err != nil {
		t.Fatalf("register: %v", err)
	}
	o := core.ResolveOptions(core.WithK(3))
	want := make([]core.Result, len(tc.fresh))
	for i, v := range tc.fresh {
		want[i], err = ref.RecommendBound(context.Background(), v, o, nil)
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
	}
	const rounds = 5
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, v := range tc.fresh {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := c.Recommend(context.Background(), v, o, nil)
				if err != nil {
					t.Errorf("query %s: %v", v.ID, err)
					return
				}
				if res.ItemID != v.ID || !reflect.DeepEqual(res.Recommendations, want[i].Recommendations) {
					t.Errorf("query %s: wrong answer routed back", v.ID)
				}
			}()
		}
	}
	wg.Wait()
}

// TestQueryStreamNotFoundIsStatusErr: a shardd answering 404 on the
// query stream gets no fallback path — the call fails with the ordinary
// 4xx status error, which is not ErrShardUnavailable (a protocol
// mismatch is not a transport fault to fail over from).
func TestQueryStreamNotFoundIsStatusErr(t *testing.T) {
	tc := buildTinyCorpus()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A build without the endpoint: 404 the query stream, serve the rest.
	old := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathQueryStream {
			http.NotFound(w, r)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	})
	hs := srv.NewHTTPServer(ln.Addr().String())
	hs.Handler = old
	go hs.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { hs.Close() })

	c := NewClient(ln.Addr().String(), 0, 1)
	t.Cleanup(c.Close)
	if err := c.Handoff(context.Background(), tinySnapshot(t)); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	for i := 0; i < 2; i++ {
		res, err := c.Recommend(context.Background(), tc.query, core.ResolveOptions(core.WithK(3)), nil)
		if err == nil || !strings.Contains(err.Error(), "status 404") {
			t.Fatalf("recommend %d: err = %v, want a status 404 error", i, err)
		}
		if errors.Is(err, shard.ErrShardUnavailable) {
			t.Fatalf("recommend %d: 404 misclassified as unavailable: %v", i, err)
		}
		if res.ItemID != tc.query.ID || len(res.Recommendations) != 0 {
			t.Fatalf("recommend %d: result %+v, want an empty result for %s", i, res, tc.query.ID)
		}
	}
}

// TestMuxCancellation: a cancelled caller gets its context error (not
// ErrShardUnavailable) and the stream survives for the next call.
func TestMuxCancellation(t *testing.T) {
	tc := buildTinyCorpus()
	lb := startLoopback(t, 0, 1)
	c := bootClient(t, lb)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Recommend(ctx, tc.query, core.ResolveOptions(core.WithK(3)), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled recommend = %v, want context.Canceled", err)
	}
	if errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("cancellation misclassified as unavailable: %v", err)
	}
	res, err := c.Recommend(context.Background(), tc.query, core.ResolveOptions(core.WithK(3)), nil)
	if err != nil || len(res.Recommendations) == 0 {
		t.Fatalf("stream unusable after a cancelled call: %v", err)
	}
}

// TestShardAuth: a shardd with -auth-token 401s tokenless and
// wrong-token calls on every surface, and serves with the right token.
func TestShardAuth(t *testing.T) {
	const token = "sekrit-fleet-token"
	tc := buildTinyCorpus()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.AuthToken = token
	hs := srv.NewHTTPServer(ln.Addr().String())
	go hs.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { hs.Close() })

	ctx := context.Background()
	for name, tok := range map[string]string{"no token": "", "wrong token": "nope"} {
		c := NewClient(ln.Addr().String(), 0, 1)
		c.AuthToken = tok
		if err := c.Handoff(ctx, tinySnapshot(t)); err == nil || !strings.Contains(err.Error(), "401") {
			t.Fatalf("%s: handoff = %v, want 401", name, err)
		}
		if _, err := c.Ping(ctx); err == nil {
			t.Fatalf("%s: ping succeeded", name)
		}
		if _, err := c.Recommend(ctx, tc.query, core.ResolveOptions(core.WithK(3)), nil); err == nil {
			t.Fatalf("%s: recommend succeeded", name)
		}
		c.Close()
	}

	good := NewClient(ln.Addr().String(), 0, 1)
	good.AuthToken = token
	t.Cleanup(good.Close)
	if err := good.Handoff(ctx, tinySnapshot(t)); err != nil {
		t.Fatalf("authed handoff: %v", err)
	}
	if _, err := good.Ping(ctx); err != nil {
		t.Fatalf("authed ping: %v", err)
	}
	res, err := good.Recommend(ctx, tc.query, core.ResolveOptions(core.WithK(3)), nil)
	if err != nil || len(res.Recommendations) == 0 {
		t.Fatalf("authed recommend: %v (%d recs)", err, len(res.Recommendations))
	}
	if st := good.Stats(); !st.Trained {
		t.Fatal("authed stats reports untrained")
	}
}
