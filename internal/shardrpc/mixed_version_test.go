// mixed_version_test.go holds the query stream to its peers from before
// the bound-raise lines were retired: an older shardd streams raises and
// a final raise before each terminal line, and an older router sends its
// bound on the ask and raise lines after it. Each side must read and drop
// what the other sends, and answer exactly as between two new peers.
package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/sigtree"
)

// legacyShard serves the query stream as an older shardd did: for each
// ask it registers the item and searches a whole engine booted from the
// tiny snapshot, then writes two raise lines of its k-th score (a sampled
// raise and the final one) before the terminal line. It returns the
// address.
func legacyShard(t *testing.T) string {
	t.Helper()
	eng, err := core.LoadFrom(bytes.NewReader(tinySnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+pathQueryStream, func(w http.ResponseWriter, r *http.Request) {
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
	p.SetUnencryptedHTTP2(true)
	hs := &http.Server{Handler: mux, Protocols: p}
	go hs.Serve(ln) //nolint:errcheck // closed by Cleanup
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

// TestAskLegacyShardRaisesIgnored: a new client asking an older shardd
// gets the engine's answers, and the raise lines the shardd streams never
// reach the bound the router passed in.
func TestAskLegacyShardRaisesIgnored(t *testing.T) {
	tc := buildTinyCorpus()
	reference, err := core.LoadFrom(bytes.NewReader(tinySnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(legacyShard(t), 0, 1)
	defer c.Close()
	ctx := context.Background()
	o := core.ResolveOptions(core.WithK(3))
	raised := false
	for _, v := range []model.Item{tc.query, tc.fresh[0], tc.fresh[1], tc.query} {
		want, werr := reference.RecommendCtx(ctx, v, core.WithK(3))
		b := sigtree.NewBound()
		got, _, gerr := c.Recommend(ctx, v, o, b)
		if werr != nil || gerr != nil {
			t.Fatalf("ask %s: engine err %v, client err %v", v.ID, werr, gerr)
		}
		if got.ItemID != v.ID || !reflect.DeepEqual(got.Recommendations, want.Recommendations) || got.Stats != want.Stats {
			t.Fatalf("ask %s over an older shardd diverged:\n got %+v\nwant %+v", v.ID, got, want)
		}
		if lb := b.Load(); !math.IsInf(lb, -1) {
			t.Fatalf("ask %s: the shardd's raise lines reached the router's bound (%v)", v.ID, lb)
		}
		raised = raised || len(got.Recommendations) > 0
	}
	if !raised {
		t.Fatal("no ask filled a top-k, so the older shardd sent no raise lines")
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
