package shardrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ssrec/internal/binrec"
	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/telemetry"
)

// frameKindUnknown is a kind no receiver acts on.
const frameKindUnknown = 0x42

// withUnknown returns body with a frame of an unknown kind before and
// after each of its frames.
func withUnknown(t *testing.T, body []byte) []byte {
	t.Helper()
	unknown := binrec.AppendRecord(nil, frameKindUnknown, []byte("not for you"))
	out := append([]byte(nil), unknown...)
	for rest := body; len(rest) > 0; {
		_, k := binary.Uvarint(rest[1:])
		n, _ := binary.Uvarint(rest[1:])
		end := 1 + k + int(n)
		out = append(append(out, rest[:end]...), unknown...)
		rest = rest[end:]
	}
	return out
}

// overCount is a frame of kind whose payload is prefix, then a count one
// larger than the bytes left could hold, then tail.
func overCount(kind byte, prefix, tail []byte) []byte {
	p := binary.AppendUvarint(append([]byte(nil), prefix...), uint64(len(tail)+1))
	return binrec.AppendRecord(nil, kind, append(p, tail...))
}

// refusedCount holds a decoding error to the count refusal.
func refusedCount(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, errFrame) || !strings.Contains(err.Error(), "exceeds the record") {
		t.Fatalf("%s with a count past the bytes left: err = %v, want the count refusal", what, err)
	}
}

// bodySeeds are frame bodies of every write kind, from the tiny corpus.
func bodySeeds() [][]byte {
	tc := buildTinyCorpus()
	var batch []core.Observation
	for i, v := range tc.fresh[:4] {
		batch = append(batch, core.Observation{UserID: fmt.Sprintf("user%d", i%3), Item: v, Timestamp: v.Timestamp + 1})
	}
	weird := model.Item{ID: "", Category: "", Description: "δ\x00", Timestamp: math.MinInt64}
	return [][]byte{
		encodeBody(func(f *frameWriter) { f.register(tc.fresh) }),
		encodeBody(func(f *frameWriter) { f.register([]model.Item{weird}) }),
		encodeBody(func(f *frameWriter) { f.register(nil) }),
		encodeBody(func(f *frameWriter) { f.observe(batch) }),
		encodeBody(func(f *frameWriter) {
			f.replay([]shard.ReplayBatch{{Seq: 1, Items: tc.fresh[:2]}, {Seq: 2, Obs: batch}, {Seq: 3, Items: tc.fresh[2:3], Obs: batch[:1]}})
		}),
		overCount(frameObserve, nil, []byte{1, 2, 3}),
		{frameKindUnknown, 0},
		{frameRegister, 0x80},
	}
}

// FuzzObserveFrame fuzzes the shardd's readers of the register, observe
// and replay bodies of frames. Invariants: no panic; every accepted body
// re-encodes to frames that decode to the same batch and encode to the
// same bytes again; a frame of an unknown kind anywhere in the body
// changes nothing; and a count larger than the bytes left in its frame
// is refused.
func FuzzObserveFrame(f *testing.F) {
	for _, b := range bodySeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const max = 1 << 20
		if items, err := readRegisterBody(bytes.NewReader(data), max); err == nil {
			checkBody(t, data, items, func(f *frameWriter) { f.register(items) },
				func(r io.Reader) (any, error) { return readRegisterBody(r, max) })
		}
		if batch, err := readObserveBody(bytes.NewReader(data), max); err == nil {
			checkBody(t, data, batch, func(f *frameWriter) { f.observe(batch) },
				func(r io.Reader) (any, error) { return readObserveBody(r, max) })
		}
		if steps, err := readReplayBody(bytes.NewReader(data), max); err == nil {
			checkBody(t, data, steps, func(f *frameWriter) { encodeSteps(f, steps) },
				func(r io.Reader) (any, error) { return readReplayBody(r, max) })
		}

		_, err := readRegisterBody(bytes.NewReader(overCount(frameRegister, nil, data)), max)
		refusedCount(t, "register", err)
		_, err = readObserveBody(bytes.NewReader(overCount(frameObserve, nil, data)), max)
		refusedCount(t, "observe", err)
		_, err = readReplayBody(bytes.NewReader(overCount(frameReplayObserve, []byte{7}, data)), max)
		refusedCount(t, "replay", err)
	})
}

// encodeSteps writes replay steps back as frames, one per step.
func encodeSteps(f *frameWriter, steps []replayStep) {
	for _, st := range steps {
		f.begin()
		f.rec.Uvarint(st.seq)
		if st.observe {
			f.observations(st.obs)
			f.end(frameReplayObserve)
		} else {
			f.items(st.items)
			f.end(frameReplayRegister)
		}
	}
}

// checkBody holds one accepted body, decoded to v, to the re-encoding
// and unknown-kind invariants.
func checkBody(t *testing.T, data []byte, v any, encode func(*frameWriter), read func(io.Reader) (any, error)) {
	t.Helper()
	once := encodeBody(encode)
	back, err := read(bytes.NewReader(once))
	if err != nil {
		t.Fatalf("re-encoded body %x does not decode: %v", once, err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("re-encoded body decodes to\n%+v\nwant\n%+v", back, v)
	}
	again, err := read(bytes.NewReader(withUnknown(t, data)))
	if err != nil || !reflect.DeepEqual(again, v) {
		t.Fatalf("unknown frames changed the body: %+v (err %v), want %+v", again, err, v)
	}
}

// FuzzQueryStreamFrame fuzzes both receivers of a query stream of
// frames: the shardd's, which acts on asks and cancels, and the router's,
// which acts on terminal frames. Invariants: no panic; every accepted
// ask, cancel and terminal frame re-encodes to frames that decode and
// encode back to the same bytes; a frame neither acts on is a no-op for
// both receivers (a shardd answers it with nothing, and a client delivers
// nothing to any query); and a count larger than the bytes left in its
// frame is refused.
func FuzzQueryStreamFrame(f *testing.F) {
	tc := buildTinyCorpus()
	traced := &askMsg{item: tc.fresh[0], opts: core.QueryOptions{K: 30}, trace: "00000000000000ab-00000000000000cd"}
	res := core.Result{ItemID: "v1",
		Recommendations: []model.Recommendation{{UserID: "u1", Score: 0.5}, {UserID: "u2", Score: math.Inf(-1)}, {UserID: "u3", Score: math.NaN()}}}
	res.Stats.NodesVisited, res.Stats.EntriesScored = 3, 7
	seeds := [][]byte{
		encodeBody(func(f *frameWriter) { f.ask(1, &askMsg{item: tc.query, opts: core.QueryOptions{K: 5}}) }),
		encodeBody(func(f *frameWriter) {
			f.ask(2, &askMsg{item: tc.fresh[1], opts: core.QueryOptions{K: 3, NoExpansion: true}})
		}),
		encodeBody(func(f *frameWriter) { f.ask(1<<40, traced) }),
		encodeBody(func(f *frameWriter) { f.cancel(2) }),
		encodeBody(func(f *frameWriter) { f.terminal(&terminal{id: 1, res: res, changed: true}) }),
		encodeBody(func(f *frameWriter) {
			f.terminal(&terminal{id: 4, res: core.Result{ItemID: "v2"}, err: encodeErr(core.ErrNotTrained),
				spans: []telemetry.SpanData{{TraceID: 0xab, SpanID: 1, Name: "shardd.recommend", StartNs: 5, DurNs: 9,
					Attrs: telemetry.Attrs{{K: "shard", V: "0"}}}}})
		}),
		encodeBody(func(f *frameWriter) {
			f.terminal(&terminal{id: 9, res: core.Result{ItemID: "v-cold"},
				err: encodeErr(fmt.Errorf("shard 0/2 register: %w: wal: log closed", shard.ErrShardUnavailable))})
		}),
		encodeBody(func(f *frameWriter) { f.register(tc.fresh[:1]) }),
		{frameKindUnknown, 2, 0, 0},
		{frameAsk, 1},
		{frameTerminal, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	}
	var stream []byte
	for _, s := range seeds {
		f.Add(s)
		stream = append(stream, s...)
	}
	f.Add(stream)

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
		// Frame by frame, the shardd's receiver of asks and cancels and
		// the router's receiver of terminal frames.
		fr := newFrameReader(bytes.NewReader(data), len(data))
		for {
			kind, err := fr.next()
			if err != nil {
				break
			}
			frame := binrec.AppendRecord(nil, kind, fr.rec.Buf)
			switch kind {
			case frameAsk:
				if id, a, err := fr.ask(); err == nil {
					checkFrame(t, func(f *frameWriter) { f.ask(id, &a) }, func(f *frameReader) (func(*frameWriter), error) {
						id, a, err := f.ask()
						return func(f *frameWriter) { f.ask(id, &a) }, err
					})
				}
			case frameCancel:
				if id, err := fr.cancel(); err == nil {
					checkFrame(t, func(f *frameWriter) { f.cancel(id) }, func(f *frameReader) (func(*frameWriter), error) {
						id, err := f.cancel()
						return func(f *frameWriter) { f.cancel(id) }, err
					})
				}
			case frameTerminal:
				if tm, err := fr.terminal(); err == nil {
					checkFrame(t, func(f *frameWriter) { f.terminal(&tm) }, func(f *frameReader) (func(*frameWriter), error) {
						back, err := f.terminal()
						return func(f *frameWriter) { f.terminal(&back) }, err
					})
				}
			}
			if kind != frameTerminal {
				checkClientSkips(t, frame)
			}
			if kind != frameAsk && kind != frameCancel {
				checkShardSkips(t, h, frame)
			}
		}

		_, _, err := frameAt(t, overCount(frameAsk, []byte{1, 0, 10, 0, 1, 'v', 0, 1, 'c', 0, 1, 'p'}, data)).ask()
		refusedCount(t, "ask entities", err)
		_, err = frameAt(t, overCount(frameTerminal, []byte{1, 0, 1, 'v', 0, 0, 0}, data)).terminal()
		refusedCount(t, "terminal recommendations", err)
	})
}

// checkFrame encodes one accepted frame with encode, decodes it with
// decode, and holds the decoded frame's re-encoding to the same bytes.
func checkFrame(t *testing.T, encode func(*frameWriter), decode func(*frameReader) (func(*frameWriter), error)) {
	t.Helper()
	once := encodeBody(encode)
	reencode, err := decode(frameAt(t, once))
	if err != nil {
		t.Fatalf("re-encoded frame %x does not decode: %v", once, err)
	}
	if twice := encodeBody(reencode); !bytes.Equal(once, twice) {
		t.Fatalf("frame is not stable across a relay:\n%x\n%x", once, twice)
	}
}

// checkShardSkips feeds a stream of one frame the shardd does not act on
// to its stream handler h, which must answer nothing.
func checkShardSkips(t *testing.T, h http.Handler, frame []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, pathQueryStream, bytes.NewReader(frame))
	req.Header.Set("Content-Type", contentTypeFrames)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("shardd answered the frame %x: status %d, body %q", frame, rec.Code, rec.Body.String())
	}
}

// checkClientSkips feeds a stream of one frame that is not a terminal to
// a client's reader, which must deliver nothing to the query the stream
// has in flight before the stream ends.
func checkClientSkips(t *testing.T, frame []byte) {
	t.Helper()
	if r := readAlone(frame, 1); !r.lost {
		t.Fatalf("client delivered the frame %x: %+v", frame, r)
	}
}

// readAlone runs a client's stream reader over body, with query id the
// stream's one query in flight, and returns what that query received.
func readAlone(body []byte, id uint64) muxResp {
	_, pw := io.Pipe()
	ch := make(chan muxResp, 1)
	ms := &muxStream{
		c:      &Client{},
		pw:     pw,
		cancel: func() {},
		act:    map[uint64]chan muxResp{id: ch},
		done:   make(chan struct{}),
	}
	ms.read(io.NopCloser(bytes.NewReader(body)))
	return <-ch
}
