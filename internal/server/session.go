// session.go implements POST /v2/session — the full-duplex continuous-
// recommendation protocol over the core.Session substrate:
//
//	POST /v2/session[?auto_k=N]   (NDJSON in both directions, best served
//	                               over unencrypted HTTP/2 — h2c)
//
// Client → server, one tagged command per line, in stream order:
//
//	{"obs":{"user_id":"u1","item":{...},"timestamp":3}}    observation
//	{"ask":{"item":{...},"k":10,"expansion":true}}         query
//	{"flush":true}                                         barrier
//
// Lines decode as strictly as a /v2/recommend body: an unknown field (such
// as the retired "parallelism") or anything after the JSON value ends the
// session with a bad_line error.
//
// Server → client:
//
//	{"credit":n}        flow control: the client may send n MORE command
//	                    lines (grants are cumulative; the first grant is
//	                    the full window)
//	{"result":{"seq":s,"item_id":...,"recommendations":[...],
//	           "auto":true,"error":{...}}}                 one answer, in
//	                    command order (auto answers come from ?auto_k)
//	{"error":{...}}     session-fatal protocol failure; the stream ends
//	{"done":{...}}      terminal summary after a clean client half-close
//
// Ordering guarantee: commands are admitted in line order into ONE
// core.Session, so every result reflects exactly the observations that
// preceded its ask on the stream — the same guarantee, and bit-identical
// results, as calling ObserveBatch/RecommendBatch directly at the same
// boundaries (enforced by the session conformance suite).
//
// Flow control: every command line consumes one credit; the server
// retires credit when the command's effect is durable (observations when
// their micro-batch is admitted, asks when their result line is written)
// and grants retired credit back in batches. Server-side buffering is
// therefore bounded by the credit window — a slow result consumer stalls
// retirement, the client runs out of credit and blocks. A client that
// keeps sending past the window is cut off with a flow_control error.
// Admission (MaxSessions) and per-session rate limits (SessionRate /
// SessionBurst token bucket) guard the engine's write path the same way
// /v2/observe's 503 admission does.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ssrec/internal/core"
)

// DefaultSessionCredit is the default per-session flow-control window.
const DefaultSessionCredit = 256

// ---- wire shapes ----

// sessionAskJSON is one query command.
type sessionAskJSON struct {
	Item itemJSON `json:"item"`
	// K is the result size (default DefaultK, capped at MaxK).
	K int `json:"k"`
	// Expansion disables entity expansion when explicitly false.
	Expansion *bool `json:"expansion"`
}

// sessionLineIn is one client command line; exactly one field is set.
type sessionLineIn struct {
	Obs   *observeLineJSON `json:"obs,omitempty"`
	Ask   *sessionAskJSON  `json:"ask,omitempty"`
	Flush bool             `json:"flush,omitempty"`
}

// sessionResultJSON is one answer, in command order.
type sessionResultJSON struct {
	Seq             uint64               `json:"seq"`
	Auto            bool                 `json:"auto,omitempty"`
	ItemID          string               `json:"item_id"`
	Recommendations []recommendationJSON `json:"recommendations,omitempty"`
	Error           *errorJSON           `json:"error,omitempty"`
}

// sessionDoneJSON is the terminal summary of a cleanly-closed session.
type sessionDoneJSON struct {
	Pushed   uint64     `json:"pushed"`
	Applied  uint64     `json:"applied"`
	Rejected uint64     `json:"rejected"`
	Flushed  uint64     `json:"flushed"`
	Batches  uint64     `json:"batches"`
	Asked    uint64     `json:"asked"`
	Answered uint64     `json:"answered"`
	Error    *errorJSON `json:"error,omitempty"`
}

// sessionLineOut is one server line; exactly one field is set.
type sessionLineOut struct {
	Credit int                `json:"credit,omitempty"`
	Result *sessionResultJSON `json:"result,omitempty"`
	Done   *sessionDoneJSON   `json:"done,omitempty"`
	Error  *errorJSON         `json:"error,omitempty"`
}

// ---- serving-side counters (reported by /v2/stats) ----

type sessionCounters struct {
	open       atomic.Int64
	total      atomic.Int64
	lines      atomic.Int64 // command lines admitted
	results    atomic.Int64 // result lines written
	rejected   atomic.Int64 // 503 admission rejections
	violations atomic.Int64 // flow-control kills
	throttleNs atomic.Int64 // time spent pacing rate-limited sessions
}

// ---- token bucket (per-session rate limit) ----

// tokenBucket paces a session's command stream to rate lines/sec with a
// burst allowance. Pacing sleeps the reader (HTTP/2 flow control then
// pushes back on the client) rather than rejecting — a stream has no
// per-line retry semantics.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

// take consumes one token, sleeping until it is available. Returns the
// time spent waiting; a cancelled ctx cuts the wait short.
func (tb *tokenBucket) take(ctx context.Context) time.Duration {
	if tb == nil {
		return 0
	}
	now := time.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	tb.last = now
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.tokens--
	if tb.tokens >= 0 {
		return 0
	}
	wait := time.Duration(-tb.tokens / tb.rate * float64(time.Second))
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
	return time.Since(now)
}

// ---- credit window ----

// creditWindow tracks one session's flow-control state. consume/retire
// run on different goroutines (reader vs session pump vs result writer);
// grants are emitted in batches of at least window/4 to keep the credit
// chatter off the hot path.
type creditWindow struct {
	mu      sync.Mutex
	window  int
	out     int // consumed, not yet retired
	pending int // retired, not yet granted back
	grant   func(n int)
}

// consume admits one line; false means the client overran the window.
func (c *creditWindow) consume() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out++
	return c.out <= c.window
}

// retire returns n lines' credit to the pool, granting in batches.
func (c *creditWindow) retire(n int) {
	c.mu.Lock()
	c.out -= n
	c.pending += n
	g := 0
	if c.pending >= max(1, c.window/4) {
		g, c.pending = c.pending, 0
	}
	c.mu.Unlock()
	if g > 0 {
		c.grant(g)
	}
}

// ---- the handler ----

// decodeSessionLine decodes one command line, refusing unknown fields and
// trailing data.
func decodeSessionLine(raw []byte, line *sessionLineIn) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(line); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the command")
	}
	return nil
}

func (s *Server) handleSessionV2(w http.ResponseWriter, r *http.Request) {
	// Admission control shares the /v2/observe 503 helper: a saturated
	// recommender must push back before committing to a stream.
	if s.MaxSessions > 0 {
		if n := s.inflightSessions.Add(1); int(n) > s.MaxSessions {
			s.inflightSessions.Add(-1)
			s.sessions.rejected.Add(1)
			s.rejectOverloaded(w, fmt.Sprintf("session limit reached (%d open)", s.MaxSessions))
			return
		}
		defer s.inflightSessions.Add(-1)
	}
	s.sessions.open.Add(1)
	s.sessions.total.Add(1)
	defer s.sessions.open.Add(-1)

	autoK := 0
	if v := r.URL.Query().Get("auto_k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "auto_k must be a non-negative integer")
			return
		}
		autoK = min(n, s.MaxK)
	}

	// Sessions are long-lived: clear the server's per-connection deadlines
	// (ssrec-server's -read-timeout/-write-timeout are sized for
	// request/response calls) and commit the response so the client's
	// dial returns.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Time{})  //nolint:errcheck // best-effort
	rc.SetWriteDeadline(time.Time{}) //nolint:errcheck
	rc.EnableFullDuplex()            //nolint:errcheck // no-op on HTTP/2
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc.Flush() //nolint:errcheck

	var wmu sync.Mutex
	enc := json.NewEncoder(w)
	writeLine := func(line sessionLineOut) {
		wmu.Lock()
		enc.Encode(line) //nolint:errcheck // stream best-effort; client sees loss as EOF
		rc.Flush()       //nolint:errcheck
		wmu.Unlock()
	}

	window := s.SessionCredit
	if window <= 0 {
		window = DefaultSessionCredit
	}
	credit := &creditWindow{window: window, grant: func(n int) { writeLine(sessionLineOut{Credit: n}) }}
	credit.grant(window) // the initial window

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	// The micro-batch must fit inside the credit window: obs credit only
	// retires at flush, so a batch the window can never fill (with the
	// linger timer off) would starve a compliant client of credit forever
	// before the flush that re-grants it.
	batch := min(s.BatchSize, window)
	ses := core.NewSession(ctx, s.eng,
		core.WithSessionBatch(batch),
		core.WithSessionQueue(window),
		core.WithSessionResults(min(window, core.DefaultSessionResults)),
		core.WithSessionLinger(s.SessionLinger),
		core.WithAutoRecommend(autoK),
		core.WithSessionFlushHook(func(batch int, _ core.BatchReport, _ error) { credit.retire(batch) }),
	)

	// Result writer: answers stream back in command order; writing the
	// line is what retires an ask's credit, so a slow consumer stalls
	// retirement (the h2 send window fills, writeLine blocks) and the
	// compliant client runs out of credit — server buffering never grows
	// past the window.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for res := range ses.Results() {
			out := &sessionResultJSON{Seq: res.Seq, Auto: res.Auto, ItemID: res.ItemID}
			if res.Err != nil {
				out.Error = toErrorJSON(res.Err)
			}
			if res.Err == nil || servesPartial(res.Err) {
				out.Recommendations = make([]recommendationJSON, 0, len(res.Recommendations))
				for _, rec := range res.Recommendations {
					out.Recommendations = append(out.Recommendations, recommendationJSON{UserID: rec.UserID, Score: rec.Score})
				}
			}
			s.sessions.results.Add(1)
			writeLine(sessionLineOut{Result: out})
			// Only an explicit ask's result retires credit: an auto answer
			// (?auto_k) has no command line of its own — its observation's
			// credit was already retired by the flush hook, and retiring
			// again would drift the window open and disarm the
			// flow-control violation check.
			if !res.Auto {
				credit.retire(1)
			}
		}
	}()

	limiter := newTokenBucket(s.SessionRate, s.SessionBurst)
	var fatal *errorJSON
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxNDJSONLine)
read:
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if d := limiter.take(ctx); d > 0 {
			s.sessions.throttleNs.Add(int64(d))
		}
		if ctx.Err() != nil {
			break
		}
		var line sessionLineIn
		if err := decodeSessionLine(raw, &line); err != nil {
			fatal = &errorJSON{Code: "bad_line", Message: err.Error()}
			break
		}
		if !credit.consume() {
			s.sessions.violations.Add(1)
			fatal = &errorJSON{Code: "flow_control",
				Message: fmt.Sprintf("credit window (%d) exceeded; honor credit lines", window)}
			break
		}
		s.sessions.lines.Add(1)
		var err error
		switch {
		case line.Obs != nil:
			err = ses.Push(core.Observation{
				UserID:    line.Obs.UserID,
				Item:      line.Obs.Item.model(),
				Timestamp: line.Obs.Timestamp,
			})
		case line.Ask != nil:
			k := line.Ask.K
			if k <= 0 {
				k = core.DefaultK
			}
			k = min(k, s.MaxK)
			opts := []core.Option{core.WithK(k)}
			if line.Ask.Expansion != nil && !*line.Ask.Expansion {
				opts = append(opts, core.WithoutExpansion())
			}
			err = ses.Ask(line.Ask.Item.model(), opts...)
		case line.Flush:
			err = ses.Flush()
			credit.retire(1)
		default:
			fatal = &errorJSON{Code: "bad_line", Message: "line must carry obs, ask or flush"}
			break read
		}
		if err != nil {
			break // session terminated underneath (ctx cancelled)
		}
	}
	if fatal == nil && sc.Err() != nil && ctx.Err() == nil {
		fatal = &errorJSON{Code: "bad_stream", Message: sc.Err().Error()}
	}

	if fatal != nil {
		// Protocol failure: tear the session down without flushing the
		// tail — the stream's state is no longer trustworthy.
		cancel()
		<-writerDone
		if fatal.Code == "flow_control" || fatal.Code == "bad_line" || fatal.Code == "bad_stream" {
			writeLine(sessionLineOut{Error: fatal})
		}
		return
	}
	// Clean half-close: flush the pending micro-batch, drain the answers,
	// summarise.
	closeErr := ses.Close()
	<-writerDone
	st := ses.Stats()
	done := &sessionDoneJSON{
		Pushed: st.Pushed, Applied: st.Admitted, Rejected: st.Rejected,
		Flushed: st.Flushed, Batches: st.Batches, Asked: st.Asked, Answered: st.Answered,
	}
	if closeErr == nil {
		closeErr = ses.Err()
	}
	if closeErr != nil && ctx.Err() == nil {
		done.Error = toErrorJSON(closeErr)
	}
	writeLine(sessionLineOut{Done: done})
}
