// ask_test.go covers the ask's registration over the wire: a shardd
// registers every asked item through its write surface before it
// searches — logged when it has a WAL, reported on the terminal line,
// kept when the caller cancels — and a client refuses a query stream
// from a shardd that does not.
package shardrpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/shardtest"
	"ssrec/internal/sigtree"
)

// TestAskNilContextRemoteFleet: a nil context reads as Background on the
// remote path too — the ask and batch calls of a 2-shard loopback fleet
// answer exactly as the single engine does.
func TestAskNilContextRemoteFleet(t *testing.T) {
	tc := buildTinyCorpus()
	snap := tinySnapshot(t)
	reference, err := core.LoadFrom(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	c0 := NewClient(startLoopback(t, 0, 2).addr, 0, 2)
	c1 := NewClient(startLoopback(t, 1, 2).addr, 1, 2)
	defer c0.Close()
	defer c1.Close()
	r, err := shard.NewRouter(c0, c1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.HandoffSnapshot(context.Background(), snap); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	var nilCtx context.Context
	want, werr := reference.RecommendCtx(nilCtx, tc.query, core.WithK(5))
	got, gerr := r.RecommendCtx(nilCtx, tc.query, core.WithK(5))
	if werr != nil || gerr != nil {
		t.Fatalf("nil-context ask: engine err %v, fleet err %v", werr, gerr)
	}
	if !reflect.DeepEqual(got.Recommendations, want.Recommendations) {
		t.Fatalf("nil-context ask diverged:\n got %v\nwant %v", got.Recommendations, want.Recommendations)
	}
	items := tc.fresh[:3]
	wantB, werr := reference.RecommendBatch(nilCtx, items, core.WithK(5))
	gotB, gerr := r.RecommendBatch(nilCtx, items, core.WithK(5))
	if werr != nil || gerr != nil {
		t.Fatalf("nil-context batch: engine err %v, fleet err %v", werr, gerr)
	}
	for i := range wantB {
		if gotB[i].Err != nil || !reflect.DeepEqual(gotB[i].Recommendations, wantB[i].Recommendations) {
			t.Fatalf("nil-context batch item %d diverged (err %v):\n got %v\nwant %v",
				i, gotB[i].Err, gotB[i].Recommendations, wantB[i].Recommendations)
		}
	}
}

// TestAskRegistrationDurable: an ask alone — no RegisterItems — logs its
// fresh item's registration once, a warm re-ask logs nothing, and a shard
// rebooted from the log answers the next asks as the single engine does.
func TestAskRegistrationDurable(t *testing.T) {
	ctx := context.Background()
	tc := buildTinyCorpus()
	dir := t.TempDir()
	lb, l := walLoopback(t, dir, 0, 1)
	c := NewClient(lb.addr, 0, 1)
	defer c.Close()
	if err := c.Handoff(ctx, tinySnapshot(t)); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	o := core.ResolveOptions(core.WithK(5))
	fresh := tc.fresh[0]
	for i, want := range []bool{true, false} {
		_, changed, err := c.Recommend(ctx, fresh, o, nil)
		if err != nil || changed != want {
			t.Fatalf("ask #%d: changed=%v err=%v, want %v", i+1, changed, err, want)
		}
	}
	if got := l.Stats().Appends; got != 1 {
		t.Fatalf("a fresh ask and its warm re-ask logged %d records, want 1", got)
	}

	lb2, _, replayed := restartWAL(t, lb, l, dir)
	if replayed != 1 {
		t.Fatalf("reboot replayed %d records, want 1 (the ask's registration)", replayed)
	}
	if lb2.srv.boot.Load().local.Engine().NeedsRegistration([]model.Item{fresh}) {
		t.Fatal("the rebooted shard lost the ask's registration")
	}
	reference, err := core.LoadFrom(bytes.NewReader(tinySnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reference.RecommendCtx(ctx, fresh, core.WithK(5)); err != nil {
		t.Fatal(err)
	}
	c2 := NewClient(lb2.addr, 0, 1)
	defer c2.Close()
	for _, v := range []model.Item{fresh, tc.query, tc.fresh[1]} {
		want, werr := reference.RecommendCtx(ctx, v, core.WithK(5))
		got, _, gerr := c2.Recommend(ctx, v, o, nil)
		if werr != nil || gerr != nil {
			t.Fatalf("ask %s after reboot: engine err %v, shard err %v", v.ID, werr, gerr)
		}
		if !reflect.DeepEqual(got.Recommendations, want.Recommendations) {
			t.Fatalf("ask %s after reboot diverged:\n got %v\nwant %v", v.ID, got.Recommendations, want.Recommendations)
		}
	}
}

// TestAskCancelledStillRegisters: a caller that already gave up still
// sends the ask, so the shard registers the item and the call reports
// the context error together with the registration's changed flag.
func TestAskCancelledStillRegisters(t *testing.T) {
	tc := buildTinyCorpus()
	lb := startLoopback(t, 0, 1)
	c := bootClient(t, lb)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, changed, err := c.Recommend(ctx, tc.fresh[5], core.ResolveOptions(core.WithK(3)), nil)
	if !errors.Is(err, context.Canceled) || errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("cancelled ask: err = %v, want context.Canceled", err)
	}
	if !changed || len(res.Recommendations) != 0 {
		t.Fatalf("cancelled ask: changed=%v with %d recommendations, want true and none", changed, len(res.Recommendations))
	}
	if lb.srv.boot.Load().local.Engine().NeedsRegistration([]model.Item{tc.fresh[5]}) {
		t.Fatal("the cancelled ask's item was not registered")
	}
}

// silentShard serves a query stream that reads every frame and answers
// none, on an ephemeral loopback port, and returns its address. Its
// health body announces the frame codec, so a client's codec check lets
// it through to the stream. The stream ends when hold is closed (never,
// for a nil hold) or the client leaves. With capable unset the response
// lacks the ask-registration capability, as a shardd from before
// ask-time registration answers.
func silentShard(t *testing.T, capable bool, hold <-chan struct{}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathLivez, func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"frames":%d}`, framesVersion)
	})
	mux.HandleFunc("POST "+pathQueryStream, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if capable {
			w.Header().Set(headerAskRegisters, "1")
		}
		w.WriteHeader(http.StatusOK)
		http.NewResponseController(w).Flush() //nolint:errcheck
		go io.Copy(io.Discard, r.Body)        //nolint:errcheck // read the asks, answer none
		select {
		case <-hold:
		case <-r.Context().Done():
		}
	})
	p := new(http.Protocols)
	p.SetUnencryptedHTTP2(true)
	hs := &http.Server{Handler: mux, Protocols: p}
	go hs.Serve(ln) //nolint:errcheck // closed by Cleanup
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

// TestQueryStreamCapabilityRefused: a query stream whose response lacks
// the ask-registration capability — a shardd from before ask-time
// registration — is refused with a clear error rather than used, and a
// fleet ask that needs it fails with that error and no recommendations.
func TestQueryStreamCapabilityRefused(t *testing.T) {
	tc := buildTinyCorpus()
	old := NewClient(silentShard(t, false, nil), 1, 2)
	defer old.Close()
	_, _, err := old.Recommend(context.Background(), tc.query, core.ResolveOptions(core.WithK(3)), nil)
	if !errors.Is(err, shard.ErrNotRegistered) || errors.Is(err, shard.ErrShardUnavailable) ||
		!strings.Contains(err.Error(), "does not register asks") {
		t.Fatalf("stream without the capability: err = %v, want a refusal naming it", err)
	}

	c0 := NewClient(startLoopback(t, 0, 2).addr, 0, 2)
	defer c0.Close()
	if err := c0.Handoff(context.Background(), tinySnapshot(t)); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	r, err := shard.NewRouter(c0, old)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RecommendCtx(context.Background(), tc.fresh[6], core.WithK(3))
	if !errors.Is(err, shard.ErrNotRegistered) || len(res.Recommendations) != 0 {
		t.Fatalf("fleet ask over an old shardd: err = %v with %d recommendations, want the refusal and none",
			err, len(res.Recommendations))
	}
}

// askResult is the outcome of one Client.Recommend run in the background.
type askResult struct {
	changed bool
	err     error
}

// TestAskCancelledOnSilentShard: a cancelled ask waits for its terminal
// line, since only that line says whether the registration took effect;
// a shard whose stream ends without one is reported unavailable.
func TestAskCancelledOnSilentShard(t *testing.T) {
	tc := buildTinyCorpus()
	hold := make(chan struct{})
	c := NewClient(silentShard(t, true, hold), 0, 1)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	done := make(chan askResult, 1)
	go func() {
		_, changed, err := c.Recommend(ctx, tc.query, core.ResolveOptions(core.WithK(3)), nil)
		done <- askResult{changed, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("cancelled ask returned before its shard answered or left: changed=%v err=%v", r.changed, r.err)
	case <-time.After(200 * time.Millisecond):
	}
	close(hold)
	select {
	case r := <-done:
		if !errors.Is(r.err, shard.ErrShardUnavailable) || r.changed {
			t.Fatalf("cancelled ask on a shard that left: changed=%v err=%v, want ErrShardUnavailable", r.changed, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled ask still waiting after its shard's stream ended")
	}
}

// TestAskCancelledDuringSlowRegistration: an ask whose deadline passes
// while the shard's WAL append is held up waits out the registration,
// returns the deadline error and excludes no shard: the registration was
// logged once and the router learned that it took effect.
func TestAskCancelledDuringSlowRegistration(t *testing.T) {
	tc := buildTinyCorpus()
	lb, l := walLoopback(t, t.TempDir(), 0, 1)
	c := bootClient(t, lb)
	r, err := shard.NewRouter(c)
	if err != nil {
		t.Fatal(err)
	}
	appends := l.Stats().Appends

	// A checkpoint whose write blocks holds the log, so the ask's
	// registration stalls in its append; failing it leaves the log as is.
	held, release := make(chan struct{}), make(chan struct{})
	ckpt := make(chan error, 1)
	go func() {
		ckpt <- l.Checkpoint(func(io.Writer) error {
			close(held)
			<-release
			return errors.New("held")
		})
	}()
	<-held

	fresh := tc.fresh[7]
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := r.RecommendCtx(ctx, fresh, core.WithK(3))
		done <- err
	}()
	time.Sleep(300 * time.Millisecond)
	close(release)
	if err := <-ckpt; err == nil {
		t.Fatal("the held checkpoint succeeded")
	}
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, shard.ErrShardUnavailable) {
			t.Fatalf("ask cancelled during a slow registration: err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ask still waiting after its registration was released")
	}
	if down := r.Down(); len(down) != 0 {
		t.Fatalf("a cancel during a slow registration excluded %v", down)
	}
	if got := l.Stats().Appends - appends; got != 1 {
		t.Fatalf("the cancelled ask logged %d records, want 1", got)
	}
	if lb.srv.boot.Load().local.Engine().NeedsRegistration([]model.Item{fresh}) {
		t.Fatal("the cancelled ask's item was not registered")
	}
}

// TestAskRemoteStatsAreSoloSums: a remote leg searches against its own
// fresh bound, so over a 2-shard loopback fleet every ask's Stats equal
// the sum, over the shards, of that shard's engine searching alone with a
// fresh bound on the same state — a function of state and query, with no
// dependence on timing. The mirror engines load the same snapshot
// partitions and see the same batches and registrations as the shardds.
func TestAskRemoteStatsAreSoloSums(t *testing.T) {
	fx := shardtest.Load(t)
	const n, batches = 2, 8
	ctx := context.Background()
	r := remoteRouter(t, []string{startLoopback(t, 0, n).addr, startLoopback(t, 1, n).addr}, fx.Snapshot)
	mirror := make([]*core.Engine, n)
	for i := range mirror {
		eng, err := core.LoadShardFrom(bytes.NewReader(fx.Snapshot), i, n)
		if err != nil {
			t.Fatal(err)
		}
		mirror[i] = eng
	}
	o := core.ResolveOptions(core.WithK(shardtest.ReplayK))
	asks := 0
	for b := 0; b < batches; b++ {
		batch := fx.Obs[b*shardtest.ReplayBatch : (b+1)*shardtest.ReplayBatch]
		if _, err := r.ObserveBatch(ctx, batch); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		for _, eng := range mirror {
			if _, err := eng.ObserveBatch(ctx, batch); err != nil {
				t.Fatalf("batch %d: mirror: %v", b, err)
			}
		}
		for _, v := range shardtest.QueryWindow(fx.Queries, b) {
			got, err := r.RecommendCtx(ctx, v, core.WithK(shardtest.ReplayK))
			if err != nil {
				t.Fatalf("ask %s: %v", v.ID, err)
			}
			var want sigtree.SearchStats
			lists := make([][]model.Recommendation, n)
			for i, eng := range mirror {
				eng.RegisterItemBatch([]model.Item{v})
				res, err := eng.RecommendBound(ctx, v, o, sigtree.NewBound())
				if err != nil {
					t.Fatalf("ask %s: mirror %d: %v", v.ID, i, err)
				}
				want.Add(res.Stats)
				lists[i] = res.Recommendations
			}
			if got.Stats != want {
				t.Fatalf("batch %d ask %s: fleet stats %+v, want the solo sum %+v", b, v.ID, got.Stats, want)
			}
			if recs := sigtree.MergeTopK(o.K, lists...); !reflect.DeepEqual(got.Recommendations, recs) {
				t.Fatalf("batch %d ask %s diverged:\n got %v\nwant %v", b, v.ID, got.Recommendations, recs)
			}
			asks++
		}
	}
	if asks == 0 {
		t.Fatal("the replay asked nothing")
	}
}

// TestAskDuplicateIDBreaksStream: an ask that reuses the id of a query
// still in flight breaks the stream, as an undecodable frame does: the
// shard reads no further, answers the first ask and never registers the
// second item. The first ask is held in flight by a log whose checkpoint
// blocks its registration's append.
func TestAskDuplicateIDBreaksStream(t *testing.T) {
	tc := buildTinyCorpus()
	lb, l := walLoopback(t, t.TempDir(), 0, 1)
	bootClient(t, lb)
	held, release := make(chan struct{}), make(chan struct{})
	ckpt := make(chan error, 1)
	go func() {
		ckpt <- l.Checkpoint(func(io.Writer) error {
			close(held)
			<-release
			return errors.New("held")
		})
	}()
	<-held

	first, second := tc.fresh[0], tc.fresh[1]
	pr, pw := io.Pipe()
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		req := httptest.NewRequest(http.MethodPost, pathQueryStream, pr)
		req.Header.Set("Content-Type", contentTypeFrames)
		lb.srv.Handler().ServeHTTP(rec, req)
	}()
	o := core.ResolveOptions(core.WithK(3))
	for _, v := range []model.Item{first, second} {
		if _, err := pw.Write(encodeBody(func(f *frameWriter) { f.ask(1, &askMsg{item: v, opts: o}) })); err != nil {
			t.Fatalf("write ask %s: %v", v.ID, err)
		}
	}
	time.Sleep(100 * time.Millisecond) // the shard reads the duplicate while the first ask is held
	close(release)
	if err := <-ckpt; err == nil {
		t.Fatal("the held checkpoint succeeded")
	}
	pw.Close()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("the stream did not end after its first ask answered")
	}

	var terms []terminal
	f := newFrameReader(rec.Body, maxFrameBytes)
	for {
		kind, err := f.next()
		if err != nil {
			break
		}
		if kind != frameTerminal {
			t.Fatalf("stream with a duplicate ask id answered a frame of kind %d", kind)
		}
		tm, err := f.terminal()
		if err != nil {
			t.Fatalf("terminal frame: %v", err)
		}
		terms = append(terms, tm)
	}
	if len(terms) != 1 || terms[0].id != 1 || terms[0].err != nil || terms[0].res.ItemID != first.ID {
		t.Fatalf("stream with a duplicate ask id answered %+v, want one terminal frame for %s", terms, first.ID)
	}
	eng := lb.srv.boot.Load().local.Engine()
	if eng.NeedsRegistration([]model.Item{first}) {
		t.Fatal("the first ask's item was not registered")
	}
	if !eng.NeedsRegistration([]model.Item{second}) {
		t.Fatal("the duplicate ask's item was registered")
	}
}
