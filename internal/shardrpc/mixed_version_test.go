// mixed_version_test.go holds the shard RPC to its peers from before the
// frame codec. A router from before it sends JSON bodies and an NDJSON
// query stream; a new shardd must refuse them with 415 before it applies
// anything. A shardd from before it reads JSON only; a new router must
// refuse it before any member of the deployment applies a write.
package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
)

// h2c is an HTTP client speaking unencrypted HTTP/2, as the query stream
// needs.
func h2c() *http.Client {
	p := new(http.Protocols)
	p.SetUnencryptedHTTP2(true)
	return &http.Client{Transport: &http.Transport{Protocols: p}}
}

// legacyShard is a shardd from before the frame codec: its health body
// announces no codec, and it refuses every write with 400, as it refuses
// a body of frames. writes counts the write requests it received; eng is
// the engine a write would change.
type legacyShard struct {
	addr   string
	eng    *core.Engine
	writes atomic.Int64
}

func startLegacyShard(t *testing.T, idx, of int) *legacyShard {
	t.Helper()
	eng, err := core.LoadShardFrom(bytes.NewReader(tinySnapshot(t)), idx, of)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ls := &legacyShard{addr: ln.Addr().String(), eng: eng}
	mux := http.NewServeMux()
	health := func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"shard": idx, "of": of, "trained": true, "boot_epoch": "legacy"}) //nolint:errcheck
	}
	mux.HandleFunc("GET "+pathLivez, health)
	mux.HandleFunc("GET "+pathReadyz, health)
	for _, path := range []string{pathRegister, pathObserve, pathQueryStream, pathReplay} {
		mux.HandleFunc("POST "+path, func(w http.ResponseWriter, _ *http.Request) {
			ls.writes.Add(1)
			http.Error(w, "invalid JSON", http.StatusBadRequest)
		})
	}
	p := new(http.Protocols)
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	hs := &http.Server{Handler: mux, Protocols: p}
	go hs.Serve(ln) //nolint:errcheck // closed by Cleanup
	t.Cleanup(func() { hs.Close() })
	return ls
}

// engineState is what a write would change on an engine: whether each
// item still needs registering and each user's profile length.
func engineState(e *core.Engine, items []model.Item, users []string) string {
	var b strings.Builder
	for _, v := range items {
		fmt.Fprintf(&b, "%s:%v ", v.ID, e.NeedsRegistration([]model.Item{v}))
	}
	for _, u := range users {
		n := -1
		if p, ok := e.Store().Lookup(u); ok {
			n = p.TotalLen()
		}
		fmt.Fprintf(&b, "%s:%d ", u, n)
	}
	return b.String()
}

// TestRouterRefusesJSONOnlyShardd: a new router over a deployment with a
// shardd from before the frame codec — as a slot of its own, and as a
// replica beside a new shardd — refuses every write and ask with
// ErrNotRegistered before any member applies it: no member's state
// changes, the old shardd receives no write at all, and no member is
// excluded. Modelled on TestQueryStreamCapabilityRefused.
func TestRouterRefusesJSONOnlyShardd(t *testing.T) {
	tc := buildTinyCorpus()
	items := []model.Item{tc.fresh[6], tc.fresh[7]}
	users := []string{"user0", "user1", "user2"}
	var batch []core.Observation
	for i, u := range users {
		batch = append(batch, core.Observation{UserID: u, Item: tc.fresh[7], Timestamp: tc.fresh[7].Timestamp + int64(i)})
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, shard.ErrNotRegistered) || errors.Is(err, shard.ErrShardUnavailable) ||
			!strings.Contains(err.Error(), "does not read binary frames") {
			t.Fatalf("%s over a JSON-only shardd: err = %v, want the codec refusal", what, err)
		}
	}

	for _, topo := range []string{"slots", "replicas"} {
		t.Run(topo, func(t *testing.T) {
			lb := startLoopback(t, 0, 2)
			c0 := NewClient(lb.addr, 0, 2)
			t.Cleanup(c0.Close)
			if err := c0.Handoff(context.Background(), tinySnapshot(t)); err != nil {
				t.Fatalf("handoff: %v", err)
			}
			var old *legacyShard
			var r *shard.Router
			var err error
			if topo == "slots" {
				old = startLegacyShard(t, 1, 2)
				c1 := NewClient(old.addr, 1, 2)
				t.Cleanup(c1.Close)
				r, err = shard.NewRouter(c0, c1)
			} else {
				old = startLegacyShard(t, 0, 2)
				c1 := NewClient(old.addr, 0, 2)
				t.Cleanup(c1.Close)
				rs, rerr := shard.NewReplicaSet(0, c0, c1)
				if rerr != nil {
					t.Fatal(rerr)
				}
				other := startLoopback(t, 1, 2)
				c2 := NewClient(other.addr, 1, 2)
				t.Cleanup(c2.Close)
				if err := c2.Handoff(context.Background(), tinySnapshot(t)); err != nil {
					t.Fatalf("handoff: %v", err)
				}
				r, err = shard.NewRouter(rs, c2)
			}
			if err != nil {
				t.Fatal(err)
			}
			newEng := lb.srv.boot.Load().local.Engine()
			before, oldBefore := engineState(newEng, items, users), engineState(old.eng, items, users)

			_, err = r.ObserveBatch(context.Background(), batch)
			refused("observe", err)
			res, err := r.RecommendCtx(context.Background(), items[0], core.WithK(3))
			refused("ask", err)
			if len(res.Recommendations) != 0 {
				t.Fatalf("refused ask answered %d recommendations", len(res.Recommendations))
			}
			results, err := r.RecommendBatch(context.Background(), items, core.WithK(3))
			if err == nil {
				err = results[0].Err
			}
			refused("batch", err)

			if after := engineState(newEng, items, users); after != before {
				t.Fatalf("the new shardd's state changed under refused writes:\n%s\n%s", before, after)
			}
			if after := engineState(old.eng, items, users); after != oldBefore || old.writes.Load() != 0 {
				t.Fatalf("the JSON-only shardd got %d writes; state %s, was %s", old.writes.Load(), after, oldBefore)
			}
			if down := r.Down(); len(down) != 0 {
				t.Fatalf("a refusal excluded shards %v", down)
			}
		})
	}
}

// TestShardRefusesNonFrameRequests: a WAL-backed shardd answers 415 to
// the register, observe and replay bodies and the query stream of a
// router from before the frame codec — JSON with its content type or
// none, and an NDJSON ask — and applies nothing of them: every item still
// needs registering, no profile changes and the WAL holds no new record.
// A client then writes and asks as before.
func TestShardRefusesNonFrameRequests(t *testing.T) {
	tc := buildTinyCorpus()
	lb, l := walLoopback(t, t.TempDir(), 0, 1)
	c := bootClient(t, lb)
	eng := lb.srv.boot.Load().local.Engine()
	items, users := tc.fresh[:4], []string{"user0", "user1"}

	raw := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	item := func(v model.Item) map[string]any {
		return map[string]any{"id": v.ID, "category": v.Category, "producer": v.Producer, "entities": v.Entities, "timestamp": v.Timestamp}
	}
	obs := func(v model.Item) map[string]any {
		var o []any
		for _, u := range users {
			o = append(o, map[string]any{"user_id": u, "item": item(v), "timestamp": v.Timestamp + 1})
		}
		return map[string]any{"observations": o}
	}
	bodies := []struct{ path, contentType, body string }{
		{pathRegister, "application/json", raw(map[string]any{"items": []any{item(items[0])}})},
		{pathObserve, "application/json", raw(obs(items[1]))},
		{pathReplay, "application/json", raw(map[string]any{"batches": []any{
			map[string]any{"seq": 1, "register": map[string]any{"items": []any{item(items[2])}}},
			map[string]any{"seq": 2, "observe": obs(items[2])},
		}})},
		{pathQueryStream, "application/x-ndjson", raw(map[string]any{"id": 1, "ask": map[string]any{"item": item(items[3]), "options": map[string]any{"k": 3}}}) + "\n"},
	}
	before, seq := engineState(eng, items, users), l.Stats().LastSeq
	hc := h2c()
	t.Cleanup(hc.CloseIdleConnections)
	for _, b := range bodies {
		for _, ct := range []string{b.contentType, ""} {
			req, err := http.NewRequest(http.MethodPost, "http://"+lb.addr+b.path, strings.NewReader(b.body))
			if err != nil {
				t.Fatal(err)
			}
			if ct != "" {
				req.Header.Set("Content-Type", ct)
			}
			resp, err := hc.Do(req)
			if err != nil {
				t.Fatalf("POST %s (%q): %v", b.path, ct, err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var e errorBody
			if resp.StatusCode != http.StatusUnsupportedMediaType || json.Unmarshal(msg, &e) != nil || !strings.Contains(e.Error, contentTypeFrames) {
				t.Fatalf("POST %s (%q): status %d, body %q; want 415 naming %s", b.path, ct, resp.StatusCode, msg, contentTypeFrames)
			}
		}
	}
	if after := engineState(eng, items, users); after != before {
		t.Fatalf("refused requests changed the shard:\n%s\n%s", before, after)
	}
	if got := l.Stats().LastSeq; got != seq {
		t.Fatalf("refused requests appended WAL records %d..%d", seq+1, got)
	}

	ctx := context.Background()
	if changed, err := c.RegisterItems(ctx, items[:1]); err != nil || !changed {
		t.Fatalf("register after the refusals: changed=%v err=%v", changed, err)
	}
	var batch []core.Observation
	for _, u := range users {
		batch = append(batch, core.Observation{UserID: u, Item: items[1], Timestamp: items[1].Timestamp + 1})
	}
	if rep, err := c.ObserveBatch(ctx, batch); err != nil || rep.Applied != len(batch) {
		t.Fatalf("observe after the refusals: %+v err=%v", rep, err)
	}
	res, changed, err := c.Recommend(ctx, items[3], core.ResolveOptions(core.WithK(3)), nil)
	if err != nil || !changed || len(res.Recommendations) == 0 {
		t.Fatalf("ask after the refusals: %+v changed=%v err=%v", res, changed, err)
	}
	if got := l.Stats().LastSeq; got != seq+3 {
		t.Fatalf("the client's writes took WAL records %d..%d, want three", seq+1, got)
	}
}
