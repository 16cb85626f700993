// mixed_version_test.go holds the shard RPC to its peers from before the
// frame codec. A router from before it sends JSON bodies and an NDJSON
// query stream (with, older still, its bound on the ask and raise lines
// after it); a new shardd must answer it exactly as it answers a new
// router. A shardd from before it reads JSON only; a new router must
// refuse it before any member of the deployment applies a write.
package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/sigtree"
)

// ---- the encoders and decoders of a router from before the frames ----

func toItemWire(v model.Item) itemWire {
	return itemWire{ID: v.ID, Category: v.Category, Producer: v.Producer,
		Entities: v.Entities, Description: v.Description, Timestamp: v.Timestamp}
}

func toOptionsWire(o core.QueryOptions) optionsWire {
	return optionsWire{K: o.K, NoExpansion: o.NoExpansion}
}

func toObsWire(batch []core.Observation) *observeWire {
	w := &observeWire{Observations: make([]obsWire, len(batch))}
	for i, o := range batch {
		w.Observations[i] = obsWire{UserID: o.UserID, Item: toItemWire(o.Item), Timestamp: o.Timestamp}
	}
	return w
}

func toRegisterWire(items []model.Item) *registerWire {
	w := &registerWire{Items: make([]itemWire, len(items))}
	for i, v := range items {
		w.Items[i] = toItemWire(v)
	}
	return w
}

func toReplayWire(batches []shard.ReplayBatch) replayWire {
	var w replayWire
	for _, b := range batches {
		if len(b.Items) > 0 {
			w.Batches = append(w.Batches, replayBatchWire{Seq: b.Seq, Register: toRegisterWire(b.Items)})
		}
		if len(b.Obs) > 0 {
			w.Batches = append(w.Batches, replayBatchWire{Seq: b.Seq, Observe: toObsWire(b.Obs)})
		}
	}
	return w
}

func (w *resultWire) result() core.Result {
	res := core.Result{ItemID: w.ItemID, Stats: sigtree.SearchStats{
		NodesVisited:   w.Stats.NodesVisited,
		EntriesScored:  w.Stats.EntriesScored,
		EntriesSkipped: w.Stats.EntriesSkipped,
	}}
	for _, rec := range w.Recommendations {
		res.Recommendations = append(res.Recommendations, model.Recommendation{UserID: rec.UserID, Score: rec.Score})
	}
	return res
}

// h2c is an HTTP client speaking unencrypted HTTP/2, as the query stream
// needs.
func h2c() *http.Client {
	p := new(http.Protocols)
	p.SetUnencryptedHTTP2(true)
	return &http.Client{Transport: &http.Transport{Protocols: p}}
}

// legacyRouter drives one shardd as a router from before the frame codec
// did: JSON write bodies and one NDJSON query stream, its asks sent one
// at a time.
type legacyRouter struct {
	t      *testing.T
	base   string
	hc     *http.Client
	pw     *io.PipeWriter
	dec    *json.Decoder
	nextID uint64
}

func newLegacyRouter(t *testing.T, addr string) *legacyRouter {
	l := &legacyRouter{t: t, base: "http://" + addr, hc: h2c()}
	t.Cleanup(func() {
		if l.pw != nil {
			l.pw.Close()
		}
		l.hc.CloseIdleConnections()
	})
	return l
}

func (l *legacyRouter) post(path string, in, out any) {
	l.t.Helper()
	raw, err := json.Marshal(in)
	if err != nil {
		l.t.Fatal(err)
	}
	resp, err := l.hc.Post(l.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		l.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		l.t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		l.t.Fatalf("POST %s: response: %v", path, err)
	}
}

func (l *legacyRouter) register(items []model.Item) bool {
	var resp registerRespWire
	l.post(pathRegister, toRegisterWire(items), &resp)
	return resp.Changed
}

func (l *legacyRouter) observe(batch []core.Observation) (core.BatchReport, error) {
	var resp observeRespWire
	l.post(pathObserve, toObsWire(batch), &resp)
	return resp.report(), decodeErr(resp.Error)
}

func (l *legacyRouter) replay(batches []shard.ReplayBatch) replayRespWire {
	var resp replayRespWire
	l.post(pathReplay, toReplayWire(batches), &resp)
	return resp
}

// ask sends one ask line and reads lines up to its terminal line.
func (l *legacyRouter) ask(v model.Item, o core.QueryOptions) (core.Result, bool, error) {
	l.t.Helper()
	if l.pw == nil {
		pr, pw := io.Pipe()
		req, err := http.NewRequest(http.MethodPost, l.base+pathQueryStream, pr)
		if err != nil {
			l.t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := l.hc.Do(req)
		if err != nil {
			l.t.Fatalf("open the query stream: %v", err)
		}
		l.t.Cleanup(func() { resp.Body.Close() })
		l.pw, l.dec = pw, json.NewDecoder(resp.Body)
	}
	l.nextID++
	raw, err := json.Marshal(qsLine{ID: l.nextID, Ask: &qsAsk{Item: toItemWire(v), Options: toOptionsWire(o)}})
	if err != nil {
		l.t.Fatal(err)
	}
	if _, err := l.pw.Write(append(raw, '\n')); err != nil {
		l.t.Fatalf("ask %s: %v", v.ID, err)
	}
	for {
		var line qsLine
		if err := l.dec.Decode(&line); err != nil {
			l.t.Fatalf("ask %s: terminal line: %v", v.ID, err)
		}
		if line.ID != l.nextID || (line.Result == nil && line.Err == nil) {
			continue
		}
		var res core.Result
		if line.Result != nil {
			res = line.Result.result()
		}
		return res, line.Changed, decodeErr(line.Err)
	}
}

// TestLegacyRouterMatchesNewRouter: a router from before the frame codec
// and a new one drive two shardds booted from one snapshot through the
// same registrations, micro-batches, replays and asks. Every answer —
// changed flags, batch reports, replay counts, rankings to the bit and
// search stats — must match.
func TestLegacyRouterMatchesNewRouter(t *testing.T) {
	tc := buildTinyCorpus()
	ctx := context.Background()
	oldSide := bootClient(t, startLoopback(t, 0, 1)) // booted; then driven by the legacy router
	legacy := newLegacyRouter(t, strings.TrimPrefix(oldSide.Addr(), "http://"))
	nc := bootClient(t, startLoopback(t, 0, 1))

	obs := func(v model.Item, users ...int) []core.Observation {
		var batch []core.Observation
		for _, u := range users {
			batch = append(batch, core.Observation{UserID: fmt.Sprintf("user%d", u), Item: v, Timestamp: v.Timestamp + int64(u)})
		}
		return batch
	}
	bad := core.Observation{Item: tc.fresh[1], Timestamp: 9} // no user: rejected

	if got, want := legacy.register(tc.fresh[:2]), mustChanged(t)(nc.RegisterItems(ctx, tc.fresh[:2])); got != want || !got {
		t.Fatalf("register: legacy changed=%v, new changed=%v, want both true", got, want)
	}
	batch := append(obs(tc.fresh[0], 0, 1, 2, 3), append(obs(tc.fresh[1], 4, 5), bad)...)
	lrep, lerr := legacy.observe(batch)
	nrep, nerr := nc.ObserveBatch(ctx, batch)
	if !reflect.DeepEqual(lrep, nrep) || fmt.Sprint(lerr) != fmt.Sprint(nerr) || lrep.Applied != 6 || lrep.Rejected != 1 {
		t.Fatalf("observe: legacy %+v (%v), new %+v (%v)", lrep, lerr, nrep, nerr)
	}
	replay := []shard.ReplayBatch{
		{Seq: 1, Items: tc.fresh[2:3]},
		{Seq: 2, Obs: obs(tc.fresh[2], 6, 7, 0)},
		{Seq: 3, Items: tc.fresh[3:4], Obs: obs(tc.fresh[3], 1, 3, 5)},
	}
	if resp := legacy.replay(replay); resp.Applied != 4 {
		t.Fatalf("legacy replay applied %d batches, want 4", resp.Applied)
	}
	if err := nc.Replay(ctx, replay); err != nil {
		t.Fatalf("replay: %v", err)
	}

	answered := false
	for _, v := range []model.Item{tc.query, tc.fresh[4], tc.fresh[0], tc.fresh[5], tc.fresh[3]} {
		for _, o := range []core.QueryOptions{core.ResolveOptions(core.WithK(5)), core.ResolveOptions(core.WithK(3), core.WithoutExpansion())} {
			lres, lchanged, lerr := legacy.ask(v, o)
			nres, nchanged, nerr := nc.Recommend(ctx, v, o, nil)
			if lerr != nil || nerr != nil {
				t.Fatalf("ask %s: legacy err %v, new err %v", v.ID, lerr, nerr)
			}
			if !reflect.DeepEqual(lres, nres) || lchanged != nchanged {
				t.Fatalf("ask %s %+v:\nlegacy %+v changed=%v\n   new %+v changed=%v", v.ID, o, lres, lchanged, nres, nchanged)
			}
			for i, r := range nres.Recommendations {
				if math.Float64bits(r.Score) != math.Float64bits(lres.Recommendations[i].Score) {
					t.Fatalf("ask %s: score %d differs in its bits", v.ID, i)
				}
			}
			answered = answered || len(nres.Recommendations) > 0
		}
	}
	if !answered {
		t.Fatal("no ask returned a ranking to compare")
	}
}

func mustChanged(t *testing.T) func(bool, error) bool {
	return func(changed bool, err error) bool {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return changed
	}
}

// legacyShard is a shardd from before the frame codec: it reads JSON
// bodies and NDJSON query streams only, announces no codec in its health
// body, and streams the bound raise lines of a still older shardd before
// each terminal line. writes counts the write requests it received.
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
	mux.HandleFunc("GET "+pathStats, func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(statsWire{Shard: idx, Trained: true, Users: eng.Users()}) //nolint:errcheck
	})
	mux.HandleFunc("POST "+pathRegister, func(w http.ResponseWriter, r *http.Request) {
		ls.writes.Add(1)
		var req registerWire
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(registerRespWire{Changed: eng.RegisterItemBatch(req.items())}) //nolint:errcheck
	})
	mux.HandleFunc("POST "+pathObserve, func(w http.ResponseWriter, r *http.Request) {
		ls.writes.Add(1)
		var req observeWire
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rep, err := eng.ObserveBatch(r.Context(), req.batch())
		json.NewEncoder(w).Encode(observeRespWire{reportWire: toReportWire(rep), Error: encodeErr(err)}) //nolint:errcheck
	})
	mux.HandleFunc("POST "+pathQueryStream, func(w http.ResponseWriter, r *http.Request) {
		ls.writes.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set(headerAskRegisters, "1")
		w.WriteHeader(http.StatusOK)
		rc := http.NewResponseController(w)
		rc.Flush() //nolint:errcheck
		dec := json.NewDecoder(r.Body)
		for {
			var line qsLine
			if err := dec.Decode(&line); err != nil {
				return
			}
			if line.Ask == nil {
				continue
			}
			v := line.Ask.Item.model()
			changed := eng.RegisterItemBatch([]model.Item{v})
			b := sigtree.NewBound()
			res, err := eng.RecommendBound(r.Context(), v, line.Ask.Options.options(), b)
			if lb := b.Load(); !math.IsInf(lb, -1) {
				fmt.Fprintf(w, "{\"id\":%d,\"b\":%v}\n{\"id\":%d,\"b\":%v}\n", line.ID, lb-1, line.ID, lb)
			}
			json.NewEncoder(w).Encode(qsLine{ID: line.ID, Result: toResultWire(res), Err: encodeErr(err), Changed: changed}) //nolint:errcheck
			rc.Flush()                                                                                                       //nolint:errcheck
		}
	})
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

// TestAskLegacyRouterBoundIgnored: an older router's ask carries its
// bound and is followed by raise lines. A new shardd ignores both and
// answers exactly — result, stats, changed — as it answers the bare ask,
// with one terminal line and nothing else. The values are far above any
// score, so a shard that pruned against them would answer nothing.
func TestAskLegacyRouterBoundIgnored(t *testing.T) {
	tc := buildTinyCorpus()
	// serve feeds body to a fresh shardd booted from the tiny snapshot and
	// returns its terminal line and how many lines it wrote.
	serve := func(body string) (string, int) {
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
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathQueryStream, bytes.NewBufferString(body)))
		terminal, lines := "", 0
		for dec := json.NewDecoder(rec.Body); ; lines++ {
			var line qsLine
			if err := dec.Decode(&line); err != nil {
				return terminal, lines
			}
			if line.Result != nil || line.Err != nil {
				raw, err := json.Marshal(line)
				if err != nil {
					t.Fatal(err)
				}
				terminal = string(raw)
			}
		}
	}
	for _, v := range []model.Item{tc.query, tc.fresh[2]} {
		ask, err := json.Marshal(qsLine{ID: 1, Ask: &qsAsk{Item: toItemWire(v), Options: toOptionsWire(core.ResolveOptions(core.WithK(5)))}})
		if err != nil {
			t.Fatal(err)
		}
		// The older router put its bound after the ask's options.
		legacyAsk := bytes.Replace(ask, []byte(`}}}`), []byte(`},"bound":1e300}}`), 1)
		if bytes.Equal(legacyAsk, ask) {
			t.Fatalf("could not splice a bound into %s", ask)
		}
		want, _ := serve(string(ask) + "\n")
		got, lines := serve(string(legacyAsk) + "\n" + `{"id":1,"b":1e300}` + "\n" + `{"id":1,"b":1.5e300}` + "\n")
		var line qsLine
		if err := json.Unmarshal([]byte(want), &line); err != nil || len(line.Result.Recommendations) == 0 {
			t.Fatalf("ask %s: bare ask answered %q (err %v), want a ranking", v.ID, want, err)
		}
		if got != want {
			t.Fatalf("ask %s: an older router's ask answered\n%s\nwant\n%s", v.ID, got, want)
		}
		if lines != 1 {
			t.Fatalf("ask %s: an older router's ask got %d lines, want the terminal line alone", v.ID, lines)
		}
	}
}
