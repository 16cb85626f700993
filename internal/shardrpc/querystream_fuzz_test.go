package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/sigtree"
	"ssrec/internal/telemetry"
)

// FuzzQueryStreamLine fuzzes the decoder of the multiplexed query stream
// (POST /shard/v1/query_stream): a body of NDJSON qsLine values read with
// a json.Decoder, as shardd reads asks and cancels and the router reads
// terminal lines. Each decoded line goes through the conversions its
// receivers apply (the ask's item and options, the result, the error).
// Invariants: no panic; a decoded error keeps its message verbatim; every
// accepted line re-encodes to a form that decodes back to itself, so a
// line relayed by one peer reads the same at the next; and a line that
// carries no ask, cancel, result or error — the bound raises of older
// peers among them — is a no-op for both receivers: a shardd answers it
// with nothing, and a client delivers nothing to the query it names.
func FuzzQueryStreamLine(f *testing.F) {
	// Lines of the retired bound-raise protocol: an ask carrying the
	// router's bound, and raise lines in either direction.
	legacy := []string{
		`{"id":1,"ask":{"item":{"id":"v1","category":"music","producer":"up0","entities":["e1","e2"],"timestamp":17},` +
			`"options":{"k":5},"bound":0.25,"trace":"00000000000000ab-00000000000000cd"}}`,
		`{"id":2,"b":0.25}`,
	}
	seeds := []qsLine{
		{ID: 3, Cancel: true},
		{ID: 4, Result: toResultWire(core.Result{ItemID: "v1",
			Recommendations: []model.Recommendation{{UserID: "u1", Score: 0.5}, {UserID: "u2", Score: -1e-300}},
			Stats:           sigtree.SearchStats{NodesVisited: 3, EntriesScored: 7}}),
			Spans: []telemetry.SpanData{{TraceID: 0xab, SpanID: 1, Name: "shardd.recommend", StartNs: 5, DurNs: 9,
				Attrs: telemetry.Attrs{{K: "shard", V: "0"}}}}},
		{ID: 5, Result: toResultWire(core.Result{ItemID: "v2"}), Err: encodeErr(core.ErrNotTrained)},
		{ID: 6, Err: encodeErr(context.Canceled)},
		// An ask for an item the shard has not seen (it registers before
		// searching) and the terminal lines that report the registration.
		{ID: 7, Ask: &qsAsk{
			Item:    toItemWire(model.Item{ID: "v-new", Category: "music", Producer: "up9"}),
			Options: toOptionsWire(core.QueryOptions{K: 3, NoExpansion: true}),
		}},
		{ID: 7, Result: toResultWire(core.Result{ItemID: "v-new",
			Recommendations: []model.Recommendation{{UserID: "u3", Score: 0.125}}}), Changed: true},
		{ID: 8, Result: toResultWire(core.Result{ItemID: "v-new"}), Err: encodeErr(context.Canceled), Changed: true},
		{ID: 9, Result: toResultWire(core.Result{ItemID: "v-cold"}),
			Err: encodeErr(fmt.Errorf("shard 0/2 register: %w: wal: log closed", shard.ErrShardUnavailable))},
		{ID: 10, Ask: &qsAsk{
			Item:    toItemWire(model.Item{ID: "v1", Category: "music", Producer: "up0", Entities: []string{"e1", "e2"}, Timestamp: 17}),
			Options: toOptionsWire(core.QueryOptions{K: 5}),
			Trace:   "00000000000000ab-00000000000000cd",
		}},
	}
	var stream bytes.Buffer
	for _, l := range legacy {
		f.Add([]byte(l))
		stream.WriteString(l + "\n")
	}
	for _, l := range seeds {
		b, err := json.Marshal(l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		stream.Write(b)
		stream.WriteByte('\n')
	}
	f.Add(stream.Bytes())
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"id":-1}`))
	f.Add([]byte(`{"id":1,"b":"x"}`))
	f.Add([]byte(`{"id":1,"ask":null,"b":1e400}`))
	f.Add([]byte(`{"id":1,"error":{"code":"bogus","message":""}}`))
	f.Add([]byte(`{"id":1,"spans":[{"trace_id":"zz"}]}`))
	f.Add([]byte(`{"id":1,"ask":{"item":{"entities":[1]}}}`))
	f.Add([]byte(`{"id":18446744073709551615,"cancel":true}{"id":2`))
	f.Add([]byte(`{"id":1,"changed":true}`))
	f.Add([]byte(`{"id":1,"changed":"yes","result":{"item_id":"v"}}`))
	f.Add([]byte(`{"id":3,"b":-0.5,"changed":true,"spans":[]}` + "\n" + `{"id":3,"b":0.75}`))

	srv, err := NewServer(0, 1)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := core.LoadFrom(bytes.NewReader(tinySnapshot(f)))
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.Boot(eng); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		for {
			var raw json.RawMessage
			if err := dec.Decode(&raw); err != nil {
				return
			}
			var line qsLine
			if err := json.Unmarshal(raw, &line); err != nil {
				return
			}
			if line.Ask != nil {
				_ = line.Ask.Item.model()
				_ = line.Ask.Options.options()
			}
			if line.Result != nil {
				if res := line.Result.result(); res.ItemID != line.Result.ItemID || len(res.Recommendations) != len(line.Result.Recommendations) {
					t.Fatalf("result conversion lost data: %+v from %+v", res, *line.Result)
				}
			}
			if line.Err != nil {
				err := decodeErr(line.Err)
				if err == nil || err.Error() != line.Err.Message {
					t.Fatalf("error line %+v decoded to %v", *line.Err, err)
				}
			}
			if line.Ask == nil && !line.Cancel && line.Result == nil && line.Err == nil {
				checkNoOpLine(t, h, raw)
			}
			once, err := json.Marshal(line)
			if err != nil {
				t.Fatalf("accepted line does not re-encode: %v", err)
			}
			var back qsLine
			if err := json.Unmarshal(once, &back); err != nil {
				t.Fatalf("re-encoded line %s does not decode: %v", once, err)
			}
			twice, err := json.Marshal(back)
			if err != nil {
				t.Fatalf("re-decoded line does not re-encode: %v", err)
			}
			if !bytes.Equal(once, twice) {
				t.Fatalf("line is not stable across a relay:\n%s\n%s", once, twice)
			}
		}
	})
}

// checkNoOpLine feeds raw, a line that carries no ask, cancel, result or
// error, to the shardd's stream handler h, which must answer nothing.
// The router reads frames only; FuzzQueryStreamFrame holds its receiver.
func checkNoOpLine(t *testing.T, h http.Handler, raw []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathQueryStream, bytes.NewReader(raw)))
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("shardd answered the no-op line %s: status %d, body %q", raw, rec.Code, rec.Body.String())
	}
}
