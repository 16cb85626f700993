// shardrpc_test.go: loopback test scaffolding plus protocol round-trip
// unit tests — a remote single shard must be observably identical to the
// engine it wraps, and every sentinel error must keep its errors.Is
// identity across the wire.
package shardrpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
)

// loopback is one in-process shardd on a real 127.0.0.1 listener —
// loopback TCP with the production HTTP/2 stack, not httptest shortcuts.
type loopback struct {
	srv  *Server
	hs   *http.Server
	addr string
}

// startLoopback serves shard idx/of on an ephemeral loopback port.
func startLoopback(tb testing.TB, idx, of int) *loopback {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	srv, err := NewServer(idx, of)
	if err != nil {
		tb.Fatalf("NewServer: %v", err)
	}
	hs := srv.NewHTTPServer(ln.Addr().String())
	go hs.Serve(ln) //nolint:errcheck // closed by Cleanup
	lb := &loopback{srv: srv, hs: hs, addr: ln.Addr().String()}
	tb.Cleanup(func() { hs.Close() })
	return lb
}

// tinyCorpus is a fast hand-rolled training corpus for protocol tests
// (the heavyweight conformance fixture lives in internal/shardtest).
type tinyCorpus struct {
	cfg     core.Config
	items   []model.Item
	irs     []model.Interaction
	resolve func(string) (model.Item, bool)
	query   model.Item
	fresh   []model.Item // post-training items for follow-up queries
}

func buildTinyCorpus() tinyCorpus {
	const cat = "music"
	byID := map[string]model.Item{}
	var items []model.Item
	var irs []model.Interaction
	ts := int64(0)
	for i := 0; i < 60; i++ {
		ts++
		v := model.Item{
			ID: fmt.Sprintf("it%02d", i), Category: cat, Producer: fmt.Sprintf("up%d", i%3),
			Entities: []string{fmt.Sprintf("e%d", i%7), "shared"}, Timestamp: ts,
		}
		items = append(items, v)
		byID[v.ID] = v
		for u := 0; u < 8; u++ {
			if (i+u)%2 == 0 {
				irs = append(irs, model.Interaction{
					UserID: fmt.Sprintf("user%d", u), ItemID: v.ID, Timestamp: ts + 1,
				})
			}
		}
	}
	var fresh []model.Item
	for i := 0; i < 8; i++ {
		fresh = append(fresh, model.Item{
			ID: fmt.Sprintf("fresh%d", i), Category: cat, Producer: fmt.Sprintf("up%d", i%3),
			Entities: []string{"shared", fmt.Sprintf("e%d", i%7)}, Timestamp: ts + 100 + int64(i),
		})
	}
	return tinyCorpus{
		cfg:     core.Config{Categories: []string{cat}, TrainMaxIter: 2, Restarts: 1, Seed: 5},
		items:   items,
		irs:     irs,
		resolve: func(id string) (model.Item, bool) { v, ok := byID[id]; return v, ok },
		query: model.Item{ID: "probe", Category: cat, Producer: "up0",
			Entities: []string{"shared", "e1"}, Timestamp: ts + 99},
		fresh: fresh,
	}
}

var tinySnapshotCache []byte

// tinySnapshot trains the tiny corpus once and returns the snapshot.
func tinySnapshot(tb testing.TB) []byte {
	tb.Helper()
	if tinySnapshotCache != nil {
		return tinySnapshotCache
	}
	tc := buildTinyCorpus()
	eng := core.New(tc.cfg)
	if err := eng.Train(tc.items, tc.irs, tc.resolve); err != nil {
		tb.Fatalf("train tiny corpus: %v", err)
	}
	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err != nil {
		tb.Fatalf("snapshot: %v", err)
	}
	tinySnapshotCache = buf.Bytes()
	return tinySnapshotCache
}

// TestRemoteShardMatchesEngine: a 1-shard remote deployment must answer
// every call bit-identically to the engine it wraps — results, scores,
// order, batch reports and per-item errors.
func TestRemoteShardMatchesEngine(t *testing.T) {
	snap := tinySnapshot(t)
	reference, err := core.LoadFrom(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	lb := startLoopback(t, 0, 1)
	c := NewClient(lb.addr, 0, 1)
	defer c.Close()
	ctx := context.Background()
	if err := c.Handoff(ctx, snap); err != nil {
		t.Fatalf("handoff: %v", err)
	}

	tc := buildTinyCorpus()
	o := core.ResolveOptions(core.WithK(5))

	// Query parity, including the no-bound fast path (b == nil).
	for _, v := range append([]model.Item{tc.query}, tc.fresh[:3]...) {
		want, werr := reference.RecommendBound(ctx, v, o, nil)
		got, _, gerr := c.Recommend(ctx, v, o, nil)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("item %s: err %v vs %v", v.ID, gerr, werr)
		}
		if !reflect.DeepEqual(got.Recommendations, want.Recommendations) {
			t.Fatalf("item %s: remote diverged\n got %v\nwant %v", v.ID, got.Recommendations, want.Recommendations)
		}
	}

	// Observe parity, including rejected entries: identical reports and
	// sentinel identities on the per-entry errors.
	batch := []core.Observation{
		{UserID: "user1", Item: tc.items[3], Timestamp: 500},
		{UserID: "", Item: tc.items[4], Timestamp: 501}, // invalid: empty user
		{UserID: "user2", Item: tc.items[5], Timestamp: 502},
	}
	want, werr := reference.ObserveBatch(ctx, batch)
	got, gerr := c.ObserveBatch(ctx, batch)
	if werr != nil || gerr != nil {
		t.Fatalf("observe errs: %v / %v", werr, gerr)
	}
	if got.Applied != want.Applied || got.Rejected != want.Rejected || got.Flushed != want.Flushed {
		t.Fatalf("report %+v, want %+v", got, want)
	}
	if len(got.Errors) != 1 || got.Errors[0].Index != 1 {
		t.Fatalf("errors = %+v", got.Errors)
	}
	if !errors.Is(got.Errors[0].Err, core.ErrInvalidObservation) {
		t.Fatalf("entry error lost sentinel identity: %v", got.Errors[0].Err)
	}
	if got.Errors[0].Err.Error() != want.Errors[0].Err.Error() {
		t.Fatalf("entry error message drifted: %q vs %q", got.Errors[0].Err, want.Errors[0].Err)
	}

	// Post-observe queries still agree (the observe really replicated).
	want2, _ := reference.RecommendBound(ctx, tc.fresh[4], o, nil)
	got2, _, _ := c.Recommend(ctx, tc.fresh[4], o, nil)
	if !reflect.DeepEqual(got2.Recommendations, want2.Recommendations) {
		t.Fatalf("post-observe divergence\n got %v\nwant %v", got2.Recommendations, want2.Recommendations)
	}

	// Sentinel errors cross the wire with identity AND message intact.
	alien := model.Item{ID: "alien", Category: "no-such-cat"}
	_, werr = reference.RecommendBound(ctx, alien, o, nil)
	_, _, gerr = c.Recommend(ctx, alien, o, nil)
	if !errors.Is(gerr, core.ErrUnknownCategory) {
		t.Fatalf("remote error lost sentinel: %v", gerr)
	}
	if gerr.Error() != werr.Error() {
		t.Fatalf("remote error message drifted: %q vs %q", gerr, werr)
	}

	// Stats parity with the wrapped engine's view.
	st := c.Stats()
	if !st.Trained || st.Shard != 0 || st.Users != reference.Users() {
		t.Fatalf("stats = %+v (reference users %d)", st, reference.Users())
	}
}

// TestUnbootedShard: every serving endpoint of a blank shardd maps to
// ErrShardUnavailable, health reports untrained, and Ping refuses it.
func TestUnbootedShard(t *testing.T) {
	lb := startLoopback(t, 1, 2)
	c := NewClient(lb.addr, 1, 2)
	defer c.Close()
	ctx := context.Background()

	if _, _, err := c.Recommend(ctx, model.Item{ID: "x", Category: "c"}, core.ResolveOptions(), nil); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("recommend on blank shard: %v", err)
	}
	if _, err := c.ObserveBatch(ctx, []core.Observation{{UserID: "u", Item: model.Item{ID: "i"}}}); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("observe on blank shard: %v", err)
	}
	if _, err := c.RegisterItems(ctx, []model.Item{{ID: "i", Category: "c"}}); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("register on blank shard: %v", err)
	}
	if _, err := c.Ping(ctx); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("ping on blank shard: %v", err)
	}
	if st := c.Stats(); st.Trained {
		t.Fatalf("blank shard reports trained stats: %+v", st)
	}
}

// TestHandoffIdentityCheck: a snapshot addressed to the wrong shard
// identity — an X-Ssrec-Shard-Index or X-Ssrec-Shard-Count other than the
// shardd's -index/-of — is refused with 409 and leaves the shard
// unbooted, and a client pointed at a shard that identifies differently
// fails Ping.
func TestHandoffIdentityCheck(t *testing.T) {
	snap := tinySnapshot(t)
	lb := startLoopback(t, 0, 2)
	ctx := context.Background()

	wrong := NewClient(lb.addr, 1, 2) // server is shard 0, client claims 1
	defer wrong.Close()
	if err := wrong.Handoff(ctx, snap); err == nil || errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("mismatched handoff: %v (want a non-transport refusal)", err)
	}
	for _, h := range [][2]string{{"1", "2"}, {"0", "3"}, {"0", "1"}, {"x", "2"}, {"0", "two"}} {
		req := httptest.NewRequest(http.MethodPost, pathSnapshot, bytes.NewReader(snap))
		req.Header.Set(headerShardIndex, h[0])
		req.Header.Set(headerShardCount, h[1])
		rec := httptest.NewRecorder()
		lb.srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusConflict {
			t.Fatalf("handoff as %s of %s: status %d, want 409", h[0], h[1], rec.Code)
		}
		if lb.srv.boot.Load() != nil {
			t.Fatalf("handoff as %s of %s booted the shard", h[0], h[1])
		}
	}

	right := NewClient(lb.addr, 0, 2)
	defer right.Close()
	if err := right.Handoff(ctx, snap); err != nil {
		t.Fatalf("matched handoff: %v", err)
	}
	if _, err := right.Ping(ctx); err != nil {
		t.Fatalf("ping after handoff: %v", err)
	}
	if _, err := wrong.Ping(ctx); err == nil {
		t.Fatal("ping accepted a shard that identifies as a different index")
	}
}

// TestHandoffGarbage: a corrupt snapshot is refused without disturbing
// the currently booted engine.
func TestHandoffGarbage(t *testing.T) {
	snap := tinySnapshot(t)
	lb := startLoopback(t, 0, 1)
	c := NewClient(lb.addr, 0, 1)
	defer c.Close()
	ctx := context.Background()
	if err := c.Handoff(ctx, snap); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if err := c.Handoff(ctx, []byte("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if _, err := c.Ping(ctx); err != nil {
		t.Fatalf("shard lost its engine after a refused handoff: %v", err)
	}
}

// TestCancellationIsNotUnavailable: a caller-cancelled context must
// surface as the context error, NOT as ErrShardUnavailable — the Router
// must never exclude a healthy shard because the caller gave up.
func TestCancellationIsNotUnavailable(t *testing.T) {
	snap := tinySnapshot(t)
	lb := startLoopback(t, 0, 1)
	c := NewClient(lb.addr, 0, 1)
	defer c.Close()
	if err := c.Handoff(context.Background(), snap); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tc := buildTinyCorpus()
	_, _, err := c.Recommend(ctx, tc.query, core.ResolveOptions(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatal("cancellation misclassified as shard unavailability")
	}
}

// TestErrWireRoundTrip: every sentinel keeps identity and message across
// encode/decode, and unknown errors degrade to plain messages.
func TestErrWireRoundTrip(t *testing.T) {
	cases := []error{
		core.ErrNotTrained,
		fmt.Errorf("%w: %q", core.ErrUnknownCategory, "sports"),
		fmt.Errorf("%w: empty user id", core.ErrInvalidObservation),
		context.Canceled,
		context.DeadlineExceeded,
		fmt.Errorf("wrap: %w", shard.ErrShardUnavailable),
		errors.New("free-form failure"),
	}
	for _, want := range cases {
		got := decodeErr(encodeErr(want))
		if got.Error() != want.Error() {
			t.Errorf("message drift: %q -> %q", want, got)
		}
		for _, sentinel := range []error{
			core.ErrNotTrained, core.ErrUnknownCategory, core.ErrInvalidObservation,
			context.Canceled, context.DeadlineExceeded, shard.ErrShardUnavailable,
		} {
			if errors.Is(want, sentinel) != errors.Is(got, sentinel) {
				t.Errorf("identity drift on %v vs %v for sentinel %v", want, got, sentinel)
			}
		}
	}
	if decodeErr(nil) != nil {
		t.Error("decodeErr(nil) != nil")
	}
	if encodeErr(nil) != nil {
		t.Error("encodeErr(nil) != nil")
	}
}
