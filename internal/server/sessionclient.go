// sessionclient.go is the Go client of the /v2/session protocol: a
// ClientSession mirrors core.Session's surface (Push / Ask / Results /
// Close) over one full-duplex NDJSON exchange, honoring the server's
// credit grants so a well-behaved client can never overrun the server's
// flow-control window. It dials with unencrypted-HTTP/2 prior knowledge —
// the same stdlib h2c machinery as internal/shardrpc — because the
// protocol streams both directions of one request concurrently.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
)

// SessionDialOption configures DialSession.
type SessionDialOption func(*sessionDialConfig)

type sessionDialConfig struct {
	authToken string
	autoK     int
	hc        *http.Client
}

// WithDialAuth sends "Authorization: Bearer <token>" — required against a
// server started with -auth-token.
func WithDialAuth(token string) SessionDialOption {
	return func(c *sessionDialConfig) { c.authToken = token }
}

// WithDialAutoRecommend asks the server to auto-answer every first-seen
// pushed item with top-k queries (the ?auto_k parameter).
func WithDialAutoRecommend(k int) SessionDialOption {
	return func(c *sessionDialConfig) { c.autoK = k }
}

// WithDialHTTPClient overrides the HTTP client (tests, custom transports).
func WithDialHTTPClient(hc *http.Client) SessionDialOption {
	return func(c *sessionDialConfig) { c.hc = hc }
}

// defaultH2CClient is the shared transport of token-less DialSession
// calls: HTTP/2 multiplexes every session over per-host connections, so
// session churn must not mint one Transport (with its connection pool
// and ping goroutines) per dial.
var (
	defaultH2COnce   sync.Once
	defaultH2CClient *http.Client
)

func sharedH2CClient() *http.Client {
	defaultH2COnce.Do(func() { defaultH2CClient = NewH2CClient() })
	return defaultH2CClient
}

// NewH2CClient builds an http.Client speaking unencrypted HTTP/2 with
// prior knowledge — what /v2/session needs against an h2c-enabled
// ssrec-server. DialSession shares one such client across calls by
// default; use this (with WithDialHTTPClient) when a caller needs its
// own isolated connection pool.
func NewH2CClient() *http.Client {
	p := new(http.Protocols)
	p.SetHTTP2(true)
	p.SetUnencryptedHTTP2(true)
	dialer := &net.Dialer{Timeout: 10 * time.Second, KeepAlive: 15 * time.Second}
	return &http.Client{Transport: &http.Transport{
		Protocols:           p,
		DialContext:         dialer.DialContext,
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     90 * time.Second,
		HTTP2: &http.HTTP2Config{
			SendPingTimeout:  15 * time.Second,
			PingTimeout:      10 * time.Second,
			WriteByteTimeout: 30 * time.Second,
		},
	}}
}

// ClientSession is one open /v2/session stream. Its surface mirrors
// core.Session so callers (and the conformance suite) can drive an
// embedded session and a wire session interchangeably.
type ClientSession struct {
	pw  *io.PipeWriter
	enc *json.Encoder
	wmu sync.Mutex // serialises command lines

	ctx     context.Context
	results chan core.SessionResult
	done    chan struct{} // reader exited

	mu      sync.Mutex
	avail   int // credit on hand
	closed  bool
	err     error // terminal failure
	stats   core.SessionStats
	haveSt  bool
	creditC chan struct{} // signalled (capacity 1) when credit arrives
}

// DialSession opens a session stream against base (a host:port or
// http:// URL of an h2c-enabled ssrec-server). The context bounds the
// whole session. The returned session is ready once the server's initial
// credit grant arrives (awaited here, so a Dial error reports auth and
// admission failures synchronously).
func DialSession(ctx context.Context, base string, opts ...SessionDialOption) (*ClientSession, error) {
	var cfg sessionDialConfig
	for _, o := range opts {
		o(&cfg)
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	hc := cfg.hc
	if hc == nil {
		hc = sharedH2CClient()
	}
	url := strings.TrimRight(base, "/") + "/v2/session"
	if cfg.autoK > 0 {
		url += "?auto_k=" + strconv.Itoa(cfg.autoK)
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if cfg.authToken != "" {
		req.Header.Set("Authorization", "Bearer "+cfg.authToken)
	}
	resp, err := hc.Do(req)
	if err != nil {
		pw.Close()
		return nil, fmt.Errorf("session: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorResponse
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		resp.Body.Close()
		pw.Close()
		msg := eb.Error
		if msg == "" {
			msg = resp.Status
		}
		return nil, fmt.Errorf("session: status %d: %s", resp.StatusCode, msg)
	}
	s := &ClientSession{
		pw:      pw,
		enc:     json.NewEncoder(pw),
		ctx:     ctx,
		results: make(chan core.SessionResult, 64),
		done:    make(chan struct{}),
		creditC: make(chan struct{}, 1),
	}
	go s.read(resp.Body)
	// Await the initial grant so a dialed session is immediately usable.
	if err := s.waitCredit(ctx); err != nil {
		s.fail(err)
		return nil, fmt.Errorf("session: no initial credit: %w", err)
	}
	s.refund() // waitCredit consumed one; give it back
	return s, nil
}

// Results delivers answers in command order; the channel closes when the
// session ends (check Err afterwards).
func (s *ClientSession) Results() <-chan core.SessionResult { return s.results }

// Err reports the terminal error (nil after a clean Close).
func (s *ClientSession) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats returns the server's session summary; valid after Close (the
// summary travels on the terminal done line).
func (s *ClientSession) Stats() (core.SessionStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats, s.haveSt
}

// Push sends one observation, honoring the credit window.
func (s *ClientSession) Push(o core.Observation) error {
	line := sessionLineIn{Obs: &observeLineJSON{
		UserID: o.UserID,
		Item: itemJSON{ID: o.Item.ID, Category: o.Item.Category, Producer: o.Item.Producer,
			Entities: o.Item.Entities, Description: o.Item.Description, Timestamp: o.Item.Timestamp},
		Timestamp: o.Timestamp,
	}}
	return s.send(line)
}

// Ask sends one query, honoring the credit window; the answer arrives on
// Results in command order.
func (s *ClientSession) Ask(v model.Item, opts ...core.Option) error {
	o := core.ResolveOptions(opts...)
	ask := &sessionAskJSON{
		Item: itemJSON{ID: v.ID, Category: v.Category, Producer: v.Producer,
			Entities: v.Entities, Description: v.Description, Timestamp: v.Timestamp},
		K: o.K,
	}
	if o.NoExpansion {
		f := false
		ask.Expansion = &f
	}
	return s.send(sessionLineIn{Ask: ask})
}

// Flush sends the explicit barrier: the server admits its pending
// micro-batch now. Asynchronous — ordering, not acknowledgement.
func (s *ClientSession) Flush() error {
	return s.send(sessionLineIn{Flush: true})
}

// Close half-closes the command stream, waits for the server's terminal
// summary and closes Results. It returns the session's terminal error.
func (s *ClientSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return s.Err()
	}
	s.closed = true
	s.mu.Unlock()
	s.pw.Close() // half-close: the server flushes, answers, summarises
	select {
	case <-s.done:
	case <-s.ctx.Done():
		s.fail(s.ctx.Err())
	}
	return s.Err()
}

// send serialises one command line after acquiring a credit.
func (s *ClientSession) send(line sessionLineIn) error {
	if err := s.waitCredit(s.ctx); err != nil {
		return err
	}
	s.wmu.Lock()
	err := s.enc.Encode(line)
	s.wmu.Unlock()
	if err != nil {
		s.refund()
		if terr := s.Err(); terr != nil {
			return terr
		}
		return core.ErrSessionClosed
	}
	return nil
}

// waitCredit blocks until a credit is available — the client half of the
// flow-control protocol. A compliant client therefore cannot overrun the
// server's window: when the server stops retiring (slow consumer), the
// grants stop and sends block here.
func (s *ClientSession) waitCredit(ctx context.Context) error {
	for {
		s.mu.Lock()
		if s.closed && s.err != nil {
			err := s.err
			s.mu.Unlock()
			return err
		}
		if s.closed {
			s.mu.Unlock()
			return core.ErrSessionClosed
		}
		if s.avail > 0 {
			s.avail--
			left := s.avail
			s.mu.Unlock()
			if left > 0 {
				// Grants arrive in batches but creditC carries one token:
				// pass the wakeup along so every blocked sender sharing
				// this session drains the batch, not just the first.
				s.signalCredit()
			}
			return nil
		}
		s.mu.Unlock()
		select {
		case <-s.creditC:
		case <-s.done:
			if err := s.Err(); err != nil {
				return err
			}
			return core.ErrSessionClosed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (s *ClientSession) refund() {
	s.mu.Lock()
	s.avail++
	s.mu.Unlock()
	s.signalCredit()
}

func (s *ClientSession) signalCredit() {
	select {
	case s.creditC <- struct{}{}:
	default:
	}
}

// fail records a terminal error and marks the session closed.
func (s *ClientSession) fail(err error) {
	s.mu.Lock()
	if s.err == nil && err != nil {
		s.err = err
	}
	s.closed = true
	s.mu.Unlock()
	s.pw.CloseWithError(err)
	s.signalCredit()
}

// decodeSessionErr restores a wire error's sentinel identity.
func decodeSessionErr(e *errorJSON) error {
	if e == nil {
		return nil
	}
	var base error
	switch e.Code {
	case "not_trained":
		base = core.ErrNotTrained
	case "unknown_category":
		base = core.ErrUnknownCategory
	case "invalid_observation":
		base = core.ErrInvalidObservation
	case "shard_unavailable":
		base = shard.ErrShardUnavailable
	case "cancelled":
		base = context.Canceled
	default:
		return errors.New(e.Message)
	}
	if e.Message == base.Error() {
		return base
	}
	return fmt.Errorf("%w: %s", base, e.Message)
}

// read dispatches server lines: credit grants unblock senders, results
// flow to the Results channel, error/done lines terminate the session.
func (s *ClientSession) read(body io.ReadCloser) {
	defer close(s.done)
	defer close(s.results)
	defer body.Close()
	dec := json.NewDecoder(body)
	for {
		var line sessionLineOut
		if err := dec.Decode(&line); err != nil {
			s.mu.Lock()
			clean := s.closed && s.err == nil && s.haveSt
			s.mu.Unlock()
			if !clean && !errors.Is(err, io.EOF) {
				s.fail(fmt.Errorf("session: stream broken: %w", err))
			} else if !clean {
				s.fail(fmt.Errorf("session: stream ended without summary"))
			}
			return
		}
		switch {
		case line.Credit > 0:
			s.mu.Lock()
			s.avail += line.Credit
			s.mu.Unlock()
			s.signalCredit()
		case line.Result != nil:
			res := core.SessionResult{
				Seq:  line.Result.Seq,
				Auto: line.Result.Auto,
				Result: core.Result{
					ItemID: line.Result.ItemID,
					Err:    decodeSessionErr(line.Result.Error),
				},
			}
			for _, rec := range line.Result.Recommendations {
				res.Recommendations = append(res.Recommendations,
					model.Recommendation{UserID: rec.UserID, Score: rec.Score})
			}
			select {
			case s.results <- res:
			case <-s.ctx.Done():
				s.fail(s.ctx.Err())
				return
			}
		case line.Done != nil:
			s.mu.Lock()
			s.stats = core.SessionStats{
				Pushed: line.Done.Pushed, Admitted: line.Done.Applied,
				Rejected: line.Done.Rejected, Flushed: line.Done.Flushed,
				Batches: line.Done.Batches, Asked: line.Done.Asked,
				Answered: line.Done.Answered,
			}
			s.haveSt = true
			s.closed = true
			if line.Done.Error != nil && s.err == nil {
				s.err = decodeSessionErr(line.Done.Error)
			}
			s.mu.Unlock()
			return
		case line.Error != nil:
			s.fail(fmt.Errorf("session: %s: %s", line.Error.Code, line.Error.Message))
			return
		}
	}
}
