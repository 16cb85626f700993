// querystream.go is the scatter leg of the shard RPC protocol: a
// router-side client opens ONE long-lived full-duplex exchange per shard
// (POST /shard/v1/query_stream) and multiplexes every concurrent
// recommend over it with stream-scoped query ids — asks, cancels and
// terminal results all travel as tagged frames (frames.go) on the same
// stream.
//
// Each ask searches against its own fresh bound on the shard: no bound
// crosses the wire, and the shard's owned-users top-k is exact on its
// own, so the router's merge stays bit-identical to the single engine —
// the remote conformance suite runs on this path. A batch of B items
// against S shards costs S streams, not B×S, and a Session issuing
// thousands of sequential asks reuses the same S streams for its whole
// lifetime.
//
// An ask is also a write: the shard registers the asked item through its
// write surface — with a WAL, logged exactly as POST /register logs it —
// before it searches, so a single-item ask costs one round trip per
// shard. The registration runs detached (a cancel stops the search,
// never the registration), and the terminal frame reports it: changed is
// set when it advanced the replicated dictionaries, and an error coded
// unavailable means it did not take effect. A cancelled client therefore
// still waits for the terminal frame, and the router settles missed-write
// debt from it. A shard announces this with the X-Ssrec-Ask-Registers
// response header; a client refuses a stream without it rather than ask
// a shardd that would register unlogged and report nothing.
//
// Both receivers skip the frames that are not theirs to act on — a
// shardd acts on asks and cancels, a client on terminal frames. Neither
// side reads a frame longer than its cap (the shardd's MaxBodyBytes, the
// client's maxFrameBytes): a longer one breaks the stream before its
// payload is read. A stream that is not frames is refused with 415
// before it opens (Server.framesOnly).
package shardrpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/telemetry"
)

// ---- server side ----

// handleQueryStream serves the multiplexed exchange: it reads asks and
// cancels off the request body (asks start concurrent searches, cancels
// abort them) and writes one terminal result per ask. The exchange ends
// when the client half-closes its request stream, or breaks it, and
// every in-flight search has answered. A frame that does not decode, or
// an ask that reuses the id of a query still in flight, breaks the
// stream: the shard reads no further, so the second ask is never
// registered.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	// Admission check only — the stream must NOT capture the engine: a
	// query stream outlives snapshot handoffs (the connection survives a
	// blip the router recovers from with a re-seed), and serving asks
	// from a pre-handoff engine would silently return stale rankings.
	// Each ask resolves the currently-booted shard below.
	if s.serving(w) == nil {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerAskRegisters, "1")
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex() //nolint:errcheck // no-op on HTTP/2
	w.WriteHeader(http.StatusOK)
	rc.Flush() //nolint:errcheck // commit headers so the client's open returns

	f := newFrameReader(bufio.NewReaderSize(r.Body, 64<<10), int(s.MaxBodyBytes))
	var wmu sync.Mutex // serialises terminal frames and guards fw
	var fw frameWriter
	write := func(t *terminal) {
		wmu.Lock()
		fw.out = fw.out[:0]
		fw.terminal(t)
		w.Write(fw.out) //nolint:errcheck // stream best-effort; the client detects loss as EOF
		rc.Flush()      //nolint:errcheck
		wmu.Unlock()
	}

	var qmu sync.Mutex
	active := make(map[uint64]context.CancelFunc) // in-flight asks by id

	var inflight sync.WaitGroup
	defer inflight.Wait()
	for {
		kind, err := f.next()
		if err != nil {
			return // EOF (client done asking) or broken stream
		}
		switch kind {
		case frameAsk:
			id, ask, err := f.ask()
			if err != nil {
				return
			}
			qctx, cancel := context.WithCancel(r.Context())
			qmu.Lock()
			_, dup := active[id]
			if !dup {
				active[id] = cancel
			}
			qmu.Unlock()
			if dup {
				cancel()
				return
			}
			// Resume the caller's trace when the ask carries one: the
			// shard-side spans are collected and shipped back on the
			// terminal frame, so the router's trace covers both processes.
			var coll *telemetry.Collector
			var sp *telemetry.Span
			if ask.trace != "" {
				qctx, coll = s.tracer.Resume(qctx, ask.trace)
				qctx, sp = telemetry.StartSpan(qctx, "shardd.recommend")
				sp.SetAttr("shard", strconv.Itoa(s.idx))
			}
			inflight.Add(1)
			go func(id uint64, ask *askMsg) {
				defer inflight.Done()
				defer cancel()
				res, changed, rerr := s.ask(qctx, ask)
				qmu.Lock()
				delete(active, id)
				qmu.Unlock()
				sp.SetAttr("item", ask.item.ID)
				sp.End()
				write(&terminal{id: id, res: res, err: encodeErr(rerr), changed: changed, spans: coll.Take()})
			}(id, &ask)
		case frameCancel:
			id, err := f.cancel()
			if err != nil {
				return
			}
			qmu.Lock()
			cancel := active[id]
			qmu.Unlock()
			if cancel != nil {
				cancel()
			}
		}
	}
}

// ask answers one ask: it registers the item through the shard's write
// surface — the same path, and with a WAL the same log record, as POST
// /register — then searches. The registration runs detached, so a
// cancel stops the search, never the registration. A registration that
// fails is reported unavailable, as the 5xx of POST /register is: the
// router then counts the shard as having missed the item. The search
// prunes against its own top-k alone.
func (s *Server) ask(ctx context.Context, ask *askMsg) (core.Result, bool, error) {
	v := ask.item
	bs := s.boot.Load()
	if bs == nil {
		return core.Result{ItemID: v.ID}, false, fmt.Errorf("shard %d/%d not booted (awaiting snapshot handoff): %w",
			s.idx, s.of, shard.ErrShardUnavailable)
	}
	changed, err := bs.writer().RegisterItems(context.WithoutCancel(ctx), []model.Item{v})
	if err != nil {
		return core.Result{ItemID: v.ID}, false, fmt.Errorf("shard %d/%d register: %w: %w",
			s.idx, s.of, shard.ErrShardUnavailable, err)
	}
	res, err := bs.local.Engine().RecommendBound(ctx, v, ask.opts, nil)
	return res, changed, err
}

// ---- client side ----

// muxResp is one answer delivered to a waiting Recommend call: the
// query's terminal frame or, with lost set, the stream's failure. spans
// carries the shard-side trace spans off the terminal frame (the reader
// goroutine has no per-query context to import them into).
type muxResp struct {
	res     core.Result
	changed bool
	err     error
	spans   []telemetry.SpanData
	lost    bool
}

// muxStream is one open query-stream exchange: all of a Client's
// concurrent Recommend calls multiplex over it. A transport failure fails
// every in-flight call (each wraps shard.ErrShardUnavailable, so the
// Router's failover engages once) and the next call dials a fresh stream.
type muxStream struct {
	c      *Client
	pw     *io.PipeWriter
	cancel context.CancelFunc // aborts the underlying request
	wmu    sync.Mutex         // serialises request frames and guards fw
	fw     frameWriter

	mu     sync.Mutex
	nextID uint64
	act    map[uint64]chan muxResp // waiters of the in-flight queries
	err    error
	broken bool

	done chan struct{} // closed when the reader exits (stream dead)
}

// muxStream returns the client's open stream, dialing one if needed, and
// reports whether the stream was already open (cached) rather than dialled
// by this call.
func (c *Client) muxStream() (*muxStream, bool, error) {
	c.muxMu.Lock()
	defer c.muxMu.Unlock()
	if c.mux != nil {
		select {
		case <-c.mux.done:
			c.mux = nil // broken; dial fresh below
		default:
			return c.mux, true, nil
		}
	}
	ms, err := c.dialMux()
	if err != nil {
		return nil, false, err
	}
	c.mux = ms
	return ms, false, nil
}

// dropMux forgets ms as the client's stream, if it still is, so the next
// call dials a fresh one even before ms's reader has seen the failure.
func (c *Client) dropMux(ms *muxStream) {
	c.muxMu.Lock()
	if c.mux == ms {
		c.mux = nil
	}
	c.muxMu.Unlock()
}

// dialMux opens one query-stream exchange. The stream outlives any single
// call, so the request runs under its own cancellable background context;
// liveness is the transport's concern (bounded dial + HTTP/2 keepalive
// pings tear down a black-holed stream, which fails every in-flight call
// into the Router's failover).
func (c *Client) dialMux() (*muxStream, error) {
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+pathQueryStream, pr)
	if err != nil {
		cancel()
		return nil, unavailable(c.idx, "query_stream", err)
	}
	req.Header.Set("Content-Type", contentTypeFrames)
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, c.transportErr(nil, "query_stream", err)
	}
	if resp.StatusCode/100 != 2 {
		err := c.statusErr(nil, "query_stream", resp)
		resp.Body.Close()
		cancel()
		if !errors.Is(err, shard.ErrShardUnavailable) {
			err = fmt.Errorf("%w: %w", shard.ErrNotRegistered, err)
		}
		return nil, err
	}
	if resp.Header.Get(headerAskRegisters) != "1" {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("shardrpc: shard %d query_stream: %w: the shardd does not register asks; upgrade every shardd before the router",
			c.idx, shard.ErrNotRegistered)
	}
	ms := &muxStream{
		c:      c,
		pw:     pw,
		cancel: cancel,
		act:    make(map[uint64]chan muxResp),
		done:   make(chan struct{}),
	}
	go ms.read(resp.Body)
	return ms, nil
}

// write sends one request frame, built by encode; a pipe failure marks
// the stream broken.
func (ms *muxStream) write(encode func(*frameWriter)) error {
	ms.wmu.Lock()
	ms.fw.out = ms.fw.out[:0]
	encode(&ms.fw)
	_, err := ms.pw.Write(ms.fw.out)
	ms.wmu.Unlock()
	if err != nil {
		ms.fail(err)
	}
	return err
}

// fail marks the stream broken and fails every in-flight call.
func (ms *muxStream) fail(err error) {
	ms.mu.Lock()
	if ms.broken {
		ms.mu.Unlock()
		return
	}
	ms.broken = true
	ms.err = err
	waiters := ms.act
	ms.act = make(map[uint64]chan muxResp)
	ms.mu.Unlock()
	ms.pw.CloseWithError(err)
	ms.cancel()
	for _, ch := range waiters {
		ch <- muxResp{err: err, lost: true}
	}
}

// read dispatches terminal frames to the waiting calls and skips every
// other frame. A frame that does not decode (server gone, stream reset,
// a frame over maxFrameBytes) fails the stream.
func (ms *muxStream) read(body io.ReadCloser) {
	defer close(ms.done)
	defer body.Close()
	f := newFrameReader(body, maxFrameBytes)
	for {
		kind, err := f.next()
		if err == nil && kind != frameTerminal {
			continue
		}
		var t terminal
		if err == nil {
			t, err = f.terminal()
		}
		if err != nil {
			ms.fail(err)
			return
		}
		ms.mu.Lock()
		ch := ms.act[t.id]
		delete(ms.act, t.id)
		ms.mu.Unlock()
		if ch == nil {
			continue // not an ask of this stream
		}
		ch <- muxResp{res: t.res, changed: t.changed, err: decodeErr(t.err), spans: t.spans}
	}
}

// recommend runs one query over the multiplexed stream: ask frame out,
// terminal frame back. The terminal frame reports the ask's registration,
// so a cancelled call sends a cancel frame and still waits for it: the
// router must learn whether the registration took effect. That wait is
// the registration's own (a WAL append and its fsync, at most) — the
// shard's search checks its context before it starts and every 64 node
// expansions, so the terminal frame follows the registration at once — and
// it is the wait the batch prologue's POST /register imposes on a
// cancelled caller too. A shard that dies first ends the stream, and the
// ask reports it unavailable. A stream failure is always unavailable,
// never the caller's context error — the stream runs under its own
// context, so the caller's cancel cannot cause one. lost reports that the
// stream failed before this query's terminal frame arrived.
func (ms *muxStream) recommend(ctx context.Context, v model.Item, o core.QueryOptions) (_ core.Result, changed, lost bool, _ error) {
	sctx, span := telemetry.StartSpan(ctx, "rpc.recommend")
	span.SetAttr("shard", strconv.Itoa(ms.c.idx))
	defer span.End()
	ch := make(chan muxResp, 1)
	ask := &askMsg{item: v, opts: o, trace: telemetry.HeaderValue(sctx)}
	ms.mu.Lock()
	if ms.broken {
		err := ms.err
		ms.mu.Unlock()
		return core.Result{ItemID: v.ID}, false, true, unavailable(ms.c.idx, "recommend", err)
	}
	ms.nextID++
	id := ms.nextID
	ms.act[id] = ch
	ms.mu.Unlock()

	if err := ms.write(func(f *frameWriter) { f.ask(id, ask) }); err != nil {
		// fail() already swept the registration into the waiter channel.
		return core.Result{ItemID: v.ID}, false, true, unavailable(ms.c.idx, "recommend", err)
	}
	var r muxResp
	select {
	case r = <-ch:
	case <-ctx.Done():
		ms.write(func(f *frameWriter) { f.cancel(id) }) //nolint:errcheck // a failed write answers through ch
		r = <-ch
	}
	telemetry.ImportSpans(sctx, r.spans)
	if r.res.ItemID == "" {
		r.res.ItemID = v.ID
	}
	switch {
	case r.lost:
		return r.res, false, true, unavailable(ms.c.idx, "recommend", r.err)
	case r.err != nil && errors.Is(r.err, shard.ErrShardUnavailable):
		return r.res, false, false, r.err // the registration did not take effect
	case ctx.Err() != nil:
		// A caller that gave up gets its context error, never an answer.
		return core.Result{ItemID: v.ID}, r.changed, false, ctx.Err()
	}
	return r.res, r.changed, false, r.err
}

// Close tears the stream down (idle-connection hygiene on Client.Close).
func (ms *muxStream) close() {
	ms.fail(errors.New("shardrpc: query stream closed"))
}
