// querystream.go is the scatter leg of the shard RPC protocol: a
// router-side client opens ONE long-lived full-duplex exchange per shard
// (POST /shard/v1/query_stream) and multiplexes every concurrent
// recommend over it with stream-scoped query ids — asks, per-query bound
// raises (both directions), cancels and terminal results all travel as
// tagged NDJSON lines on the same stream.
//
// Per query the bound protocol is monotone Bound.Raise folding,
// drift-tolerant by construction, so remote results stay bit-identical
// to the single engine — the remote conformance suite runs on this path.
// A batch of B items against S shards costs S streams, not B×S, and a
// Session issuing thousands of sequential asks reuses the same S streams
// for its whole lifetime.
//
// An ask is also a write: the shard registers the asked item through its
// write surface — with a WAL, logged exactly as POST /register logs it —
// before it searches, so a single-item ask costs one round trip per
// shard. The registration runs detached (a cancel line stops the search,
// never the registration), and the terminal line reports it: changed is
// set when it advanced the replicated dictionaries, and an error coded
// unavailable means it did not take effect. A cancelled client therefore
// still waits for the terminal line, and the router settles missed-write
// debt from it. A shard announces this with the X-Ssrec-Ask-Registers
// response header; a client refuses a stream without it rather than ask
// a shardd that would register unlogged and report nothing.
package shardrpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/sigtree"
	"ssrec/internal/telemetry"
)

// ---- server side ----

// qsQuery is one in-flight query of a multiplexed stream, on the shard
// side.
type qsQuery struct {
	b      *sigtree.Bound
	cancel context.CancelFunc
	last   float64 // last bound value published to the client (under qmu)
}

// handleQueryStream serves the multiplexed exchange: it reads tagged
// lines off the request body (asks start concurrent searches, raises fold
// into the addressed query's bound, cancels abort it), publishes each
// active query's bound raises on a single sampling ticker, and writes one
// terminal result line per query. The exchange ends when the client
// half-closes its request stream and every in-flight search has answered.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	// Admission check only — the stream must NOT capture the engine: a
	// query stream outlives snapshot handoffs (the connection survives a
	// blip the router recovers from with a re-seed), and serving asks
	// from a pre-handoff engine would silently return stale rankings.
	// Each ask resolves the currently-booted shard below.
	if s.serving(w) == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(headerAskRegisters, "1")
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex() //nolint:errcheck // no-op on HTTP/2
	w.WriteHeader(http.StatusOK)
	rc.Flush() //nolint:errcheck // commit headers so the client's open returns

	var wmu sync.Mutex // serialises response lines
	enc := json.NewEncoder(w)
	write := func(line qsLine) {
		wmu.Lock()
		enc.Encode(line) //nolint:errcheck // stream best-effort; the client detects loss as EOF
		rc.Flush()       //nolint:errcheck
		wmu.Unlock()
	}

	var qmu sync.Mutex
	active := make(map[uint64]*qsQuery)

	stop := make(chan struct{})
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		// ONE raise sampler for the whole stream, not one ticker per
		// query: every boundFlush interval, publish each active query's
		// bound if it rose since last sent.
		defer pump.Done()
		t := time.NewTicker(s.boundFlush())
		defer t.Stop()
		var raises []qsLine
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				raises = raises[:0]
				qmu.Lock()
				for id, q := range active {
					if v := q.b.Load(); v > q.last && !math.IsInf(v, 1) {
						q.last = v
						lb := v
						raises = append(raises, qsLine{ID: id, B: &lb})
					}
				}
				qmu.Unlock()
				for _, ln := range raises {
					write(ln)
				}
			}
		}
	}()

	var inflight sync.WaitGroup
	dec := json.NewDecoder(r.Body)
	for {
		var line qsLine
		if err := dec.Decode(&line); err != nil {
			break // EOF (client done asking) or broken stream
		}
		switch {
		case line.Ask != nil:
			b := sigtree.NewBound()
			last := math.Inf(-1)
			if line.Ask.Bound != nil {
				b.Raise(*line.Ask.Bound)
				last = *line.Ask.Bound
			}
			qctx, cancel := context.WithCancel(r.Context())
			// Resume the caller's trace when the ask carries one: the
			// shard-side spans are collected and shipped back on the
			// terminal line, so the router's trace covers both processes.
			var coll *telemetry.Collector
			var sp *telemetry.Span
			if line.Ask.Trace != "" {
				qctx, coll = s.tracer.Resume(qctx, line.Ask.Trace)
				qctx, sp = telemetry.StartSpan(qctx, "shardd.recommend")
				sp.SetAttr("shard", strconv.Itoa(s.idx))
			}
			q := &qsQuery{b: b, cancel: cancel, last: last}
			qmu.Lock()
			active[line.ID] = q
			qmu.Unlock()
			inflight.Add(1)
			go func(id uint64, ask qsAsk) {
				defer inflight.Done()
				defer cancel()
				res, changed, rerr := s.ask(qctx, &ask, b)
				// Retire the query, then flush its final bound (the search
				// just published its exact k-th score) before the terminal
				// line: fast searches finish between sampler ticks, and
				// sibling shards still running this query must see a
				// finished shard's bound.
				qmu.Lock()
				delete(active, id)
				final := b.Load()
				flushFinal := final > q.last && !math.IsInf(final, 1)
				qmu.Unlock()
				if flushFinal {
					write(qsLine{ID: id, B: &final})
				}
				sp.SetAttr("item", ask.Item.ID)
				sp.End()
				write(qsLine{ID: id, Result: toResultWire(res), Err: encodeErr(rerr), Changed: changed, Spans: coll.Take()})
			}(line.ID, *line.Ask)
		case line.B != nil:
			qmu.Lock()
			if q := active[line.ID]; q != nil {
				q.b.Raise(*line.B)
			}
			qmu.Unlock()
		case line.Cancel:
			qmu.Lock()
			q := active[line.ID]
			qmu.Unlock()
			if q != nil {
				q.cancel()
			}
		}
	}
	inflight.Wait()
	close(stop)
	pump.Wait()
}

// ask answers one ask line: it registers the item through the shard's
// write surface — the same path, and with a WAL the same log record, as
// POST /register — then searches. The registration runs detached, so a
// cancel line stops the search, never the registration. A registration
// that fails is reported unavailable, as the 5xx of POST /register is: the
// router then counts the shard as having missed the item.
func (s *Server) ask(ctx context.Context, ask *qsAsk, b *sigtree.Bound) (core.Result, bool, error) {
	v := ask.Item.model()
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
	res, err := bs.local.Engine().RecommendBound(ctx, v, ask.Options.options(), b)
	return res, changed, err
}

// ---- client side ----

// muxResp is one terminal answer delivered to a waiting Recommend call.
// spans carries the shard-side trace spans off the terminal line (the
// reader goroutine has no per-query context to import them into).
type muxResp struct {
	res     core.Result
	changed bool
	err     error
	spans   []telemetry.SpanData
	// lost marks a stream failure rather than a terminal line; unanswered
	// marks one that reached the query before any line for it arrived.
	lost, unanswered bool
}

// muxQuery is one in-flight query of a multiplexed stream, on the client
// side: the router's shared bound for the item, the last value relayed to
// this shard, and the waiter channel.
type muxQuery struct {
	b       *sigtree.Bound
	last    float64
	ch      chan muxResp
	replied bool // a line for this query arrived (guarded by the stream's mu)
}

// muxStream is one open query-stream exchange: all of a Client's
// concurrent Recommend calls multiplex over it. A transport failure fails
// every in-flight call (each wraps shard.ErrShardUnavailable, so the
// Router's failover engages once) and the next call dials a fresh stream.
type muxStream struct {
	c      *Client
	pw     *io.PipeWriter
	cancel context.CancelFunc // aborts the underlying request
	enc    *json.Encoder
	wmu    sync.Mutex // serialises request lines

	mu     sync.Mutex
	nextID uint64
	act    map[uint64]*muxQuery
	err    error
	broken bool

	done chan struct{} // closed when the reader exits (stream dead)
	stop chan struct{} // stops the raise pump
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
	req.Header.Set("Content-Type", "application/x-ndjson")
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, unavailable(c.idx, "query_stream", err)
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
		enc:    json.NewEncoder(pw),
		act:    make(map[uint64]*muxQuery),
		done:   make(chan struct{}),
		stop:   make(chan struct{}),
	}
	go ms.read(resp.Body)
	go ms.pump()
	return ms, nil
}

// write sends one request line; a pipe failure marks the stream broken.
func (ms *muxStream) write(line qsLine) error {
	ms.wmu.Lock()
	err := ms.enc.Encode(line)
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
	ms.act = make(map[uint64]*muxQuery)
	ms.mu.Unlock()
	ms.pw.CloseWithError(err)
	ms.cancel()
	close(ms.stop)
	for _, q := range waiters {
		q.ch <- muxResp{err: err, lost: true, unanswered: !q.replied}
	}
}

// read dispatches response lines: raises fold into the addressed query's
// shared bound, terminals wake the waiting call. A decode failure (server
// gone, stream reset) fails the stream.
func (ms *muxStream) read(body io.ReadCloser) {
	defer close(ms.done)
	defer body.Close()
	dec := json.NewDecoder(body)
	for {
		var line qsLine
		if err := dec.Decode(&line); err != nil {
			ms.fail(err)
			return
		}
		switch {
		case line.B != nil:
			ms.mu.Lock()
			q := ms.act[line.ID]
			if q != nil {
				q.replied = true
			}
			ms.mu.Unlock()
			if q != nil && q.b != nil {
				q.b.Raise(*line.B)
			}
		case line.Result != nil || line.Err != nil:
			ms.mu.Lock()
			q := ms.act[line.ID]
			delete(ms.act, line.ID)
			ms.mu.Unlock()
			if q == nil {
				continue // not an ask of this stream
			}
			resp := muxResp{changed: line.Changed, err: decodeErr(line.Err), spans: line.Spans}
			if line.Result != nil {
				resp.res = line.Result.result()
			}
			q.ch <- resp
		}
	}
}

// pump relays router-side bound raises (published by sibling shards) to
// this shard, one sampling ticker for every in-flight query.
func (ms *muxStream) pump() {
	t := time.NewTicker(ms.c.boundFlush())
	defer t.Stop()
	var raises []qsLine
	for {
		select {
		case <-ms.stop:
			return
		case <-t.C:
			raises = raises[:0]
			ms.mu.Lock()
			for id, q := range ms.act {
				if q.b == nil {
					continue
				}
				if v := q.b.Load(); v > q.last && !math.IsInf(v, 1) {
					q.last = v
					lb := v
					raises = append(raises, qsLine{ID: id, B: &lb})
				}
			}
			ms.mu.Unlock()
			for _, ln := range raises {
				if ms.write(ln) != nil {
					return
				}
			}
		}
	}
}

// recommend runs one query over the multiplexed stream: ask line out,
// raises in both directions while the search runs, terminal line back.
// The terminal line reports the ask's registration, so a cancelled call
// sends a cancel line and still waits for it: the router must learn
// whether the registration took effect. That wait is the registration's
// own (a WAL append and its fsync, at most) — the shard's search checks
// its context before it starts and every 64 node expansions, so the
// terminal line follows the registration at once — and it is the wait
// the batch prologue's POST /register imposes on a cancelled caller too.
// A shard that dies first ends the stream, and the ask reports it
// unavailable. A stream failure is always unavailable, never the
// caller's context error — the stream runs under its own context, so the
// caller's cancel cannot cause one. unanswered reports a stream failure
// that came before the shard replied to this query at all.
func (ms *muxStream) recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (_ core.Result, changed, unanswered bool, _ error) {
	sctx, span := telemetry.StartSpan(ctx, "rpc.recommend")
	span.SetAttr("shard", strconv.Itoa(ms.c.idx))
	defer span.End()
	q := &muxQuery{b: b, last: math.Inf(-1), ch: make(chan muxResp, 1)}
	ask := &qsAsk{Item: toItemWire(v), Options: toOptionsWire(o), Trace: telemetry.HeaderValue(sctx)}
	if b != nil {
		if lb := b.Load(); !math.IsInf(lb, -1) {
			ask.Bound = &lb
			q.last = lb
		}
	}
	ms.mu.Lock()
	if ms.broken {
		err := ms.err
		ms.mu.Unlock()
		return core.Result{ItemID: v.ID}, false, true, unavailable(ms.c.idx, "recommend", err)
	}
	ms.nextID++
	id := ms.nextID
	ms.act[id] = q
	ms.mu.Unlock()

	if err := ms.write(qsLine{ID: id, Ask: ask}); err != nil {
		// fail() already swept the registration into the waiter channel.
		return core.Result{ItemID: v.ID}, false, true, unavailable(ms.c.idx, "recommend", err)
	}
	var r muxResp
	select {
	case r = <-q.ch:
	case <-ctx.Done():
		ms.write(qsLine{ID: id, Cancel: true}) //nolint:errcheck // a failed write answers through q.ch
		r = <-q.ch
	}
	telemetry.ImportSpans(sctx, r.spans)
	if r.res.ItemID == "" {
		r.res.ItemID = v.ID
	}
	switch {
	case r.lost:
		return r.res, false, r.unanswered, unavailable(ms.c.idx, "recommend", r.err)
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
