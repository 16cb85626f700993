// client.go is the RemoteShard: a shard.Shard implementation that drives
// one shardd process over HTTP/2, writing binary frames (frames.go). A
// shard.Router can hold any mix of Local and RemoteShard values — the
// seam is the Shard interface, and this client implements the full
// protocol: broadcast ObserveBatch (micro-batch as the atomic replication
// unit), the multiplexed query stream (querystream.go), /stats, health
// probes (shard.Pinger), the codec check before its first write
// (shard.Preflighter) and snapshot handoff (shard.SnapshotReceiver).
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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/sigtree"
	"ssrec/internal/telemetry"
)

// statsTimeout bounds the context-less Stats() snapshot call and the
// codec check.
const statsTimeout = 5 * time.Second

// maxFrameBytes caps a terminal frame the client reads, as a shardd's
// default MaxBodyBytes caps what it reads.
const maxFrameBytes = 64 << 20

// Client is a remote shard: the client half of the shard RPC protocol,
// implementing shard.Shard (plus shard.Pinger and shard.SnapshotReceiver)
// over unencrypted HTTP/2 so one TCP connection multiplexes the broadcast
// write path and concurrent scatter queries.
type Client struct {
	idx  int
	of   int
	base string
	hc   *http.Client

	// AuthToken, when non-empty, is sent as "Authorization: Bearer" on
	// every request — the shared bearer-token layer of a shardd fleet
	// started with -auth-token. Set before first use; not synchronised.
	AuthToken string

	// muxMu guards the lazily-dialed multiplexed query stream.
	muxMu sync.Mutex
	mux   *muxStream

	// frames records that the shardd answered a health probe announcing
	// the frame codec. It is cleared whenever the shardd cannot be
	// reached, so a shardd restarted at the same address is checked again.
	frames atomic.Bool
}

// NewClient connects shard idx of an of-wide deployment at addr
// ("host:port" or a full http:// URL). No I/O happens here — connections
// are dialed lazily per request, and health is the Router's Probe concern.
func NewClient(addr string, idx, of int) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	p := new(http.Protocols)
	p.SetHTTP2(true)
	p.SetUnencryptedHTTP2(true) // h2c with prior knowledge for http:// shardd addrs
	// The transport must FAIL when a shard blackholes (partition, frozen
	// host) rather than hang: the Router's broadcast legs run detached
	// from caller cancellation (replication atomicity), so an unbounded
	// stall would pin writers forever instead of triggering failover.
	// Dialing is bounded; established connections are health-checked with
	// HTTP/2 pings after 15s of silence and torn down when a ping (or any
	// pending write) gets no response — every in-flight call then fails,
	// wraps ErrShardUnavailable, and the Router excludes the shard.
	dialer := &net.Dialer{Timeout: 10 * time.Second, KeepAlive: 15 * time.Second}
	return &Client{
		idx:  idx,
		of:   of,
		base: strings.TrimRight(addr, "/"),
		hc: &http.Client{Transport: &http.Transport{
			Protocols:           p,
			DialContext:         dialer.DialContext,
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     90 * time.Second,
			HTTP2: &http.HTTP2Config{
				SendPingTimeout:  15 * time.Second,
				PingTimeout:      10 * time.Second,
				WriteByteTimeout: 30 * time.Second,
			},
		}},
	}
}

// Addr reports the normalised base URL of the remote shard.
func (c *Client) Addr() string { return c.base }

// SplitAddrs parses a comma-separated shardd address list (the
// -shard-addrs flag syntax), trimming whitespace and dropping empty
// segments. Order is shard-index order: out[i] serves shard i.
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Dial assembles a scatter-gather Router over remote shards, one Client
// per address — the single construction path shared by
// ssrec.Open(WithRemoteShards) and ssrec-server -shard-addrs. The list is
// SLOT-MAJOR: with n = len(addrs)/replicas slots,
// addrs[i*replicas : (i+1)*replicas] are the replicas of slot i, each
// dialed with shard identity (i, n); shard.Open groups them in a
// ReplicaSet when replicas > 1 and serves plain clients otherwise. A
// non-empty token authenticates every call as "Authorization: Bearer
// <token>" against shardds started with the matching -auth-token.
//
// No I/O happens here (connections dial lazily); boot or re-seed the
// fleet with Router.HandoffSnapshot, or start each shardd with -model.
func Dial(addrs []string, replicas int, token string) (*shard.Router, error) {
	replicas = max(replicas, 1)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shardrpc: no shard addresses")
	}
	if len(addrs)%replicas != 0 {
		return nil, fmt.Errorf("shardrpc: %d addresses do not divide into replica sets of %d", len(addrs), replicas)
	}
	return shard.Open(shard.Topology{
		Slots:    len(addrs) / replicas,
		Replicas: replicas,
		Member: func(slot, replica, slots int) (shard.Shard, error) {
			c := NewClient(addrs[slot*replicas+replica], slot, slots)
			c.AuthToken = token
			return c, nil
		},
	})
}

// Index implements shard.Shard.
func (c *Client) Index() int { return c.idx }

// Width reports the deployment width this client addresses — the `of`
// it sends as X-Ssrec-Shard-Count with every snapshot handoff, which the
// shardd refuses unless it matches its own -of. Router.Reshard requires
// it to equal the target width.
func (c *Client) Width() int { return c.of }

// Close tears down the multiplexed query stream and releases idle
// connections.
func (c *Client) Close() {
	c.muxMu.Lock()
	if c.mux != nil {
		c.mux.close()
		c.mux = nil
	}
	c.muxMu.Unlock()
	c.hc.CloseIdleConnections()
}

// authorize stamps the bearer token, if configured.
func (c *Client) authorize(req *http.Request) {
	if c.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.AuthToken)
	}
}

// transportErr classifies a failed exchange: context cancellation stays a
// context error (the Router must not exclude a shard because the CALLER
// gave up); everything else is wrapped in shard.ErrShardUnavailable so the
// Router's failover can key on it.
func (c *Client) transportErr(ctx context.Context, op string, err error) error {
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	c.frames.Store(false)
	return unavailable(c.idx, op, err)
}

// do runs one exchange: a POST of body (frames) when it is non-nil, a GET
// otherwise. The JSON response decodes into out, which may be nil.
func (c *Client) do(ctx context.Context, op, path string, body []byte, out any) error {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("shardrpc: %s: %w", op, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentTypeFrames)
	}
	if hv := telemetry.HeaderValue(ctx); hv != "" {
		req.Header.Set(telemetry.TraceHeader, hv)
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return c.transportErr(ctx, op, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return c.statusErr(ctx, op, resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return c.transportErr(ctx, op, err)
	}
	return nil
}

// writers pools the frame writers request bodies are built with, so a
// body's name table and payload buffer are reused across calls.
var writers = sync.Pool{New: func() any { return new(frameWriter) }}

// encodeBody builds a request body of frames. The body itself is a fresh
// slice: the transport may still read it after the exchange returns.
func encodeBody(encode func(*frameWriter)) []byte {
	fw := writers.Get().(*frameWriter)
	fw.out = nil
	encode(fw)
	body := fw.out
	if body == nil {
		body = []byte{} // an empty replay is still a POST
	}
	fw.out = nil
	writers.Put(fw)
	return body
}

// Preflight implements shard.Preflighter: nil once the shardd has
// announced the frame codec in a health body. Until then it asks /livez
// under ctx, bounded by statsTimeout, and refuses — wrapping
// shard.ErrNotRegistered — a shardd that does not announce it: an older
// shardd would refuse or misread every frame. Every write and ask checks
// it first, and the Router checks every member before any of them
// writes, so a refusal leaves every member's state unchanged. Any other
// failure of the probe reports the shardd unavailable, so a silent
// shardd is excluded instead of vetoing its siblings' writes. When ctx
// ends first, nothing was sent: the error wraps ctx's error and
// shard.ErrNotRegistered.
func (c *Client) Preflight(ctx context.Context) error {
	if c.frames.Load() {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	pctx, cancel := context.WithTimeout(ctx, statsTimeout)
	defer cancel()
	var h healthWire
	err := c.do(pctx, "livez", pathLivez, nil, &h)
	switch {
	case err == nil:
		return c.learn(h)
	case ctx.Err() != nil:
		return fmt.Errorf("shardrpc: shard %d livez: %w: %w", c.idx, shard.ErrNotRegistered, ctx.Err())
	case errors.Is(err, shard.ErrShardUnavailable):
		return err
	default:
		return unavailable(c.idx, "livez", err)
	}
}

// learn records the codec a health body announces, refusing a shardd
// that does not read frames.
func (c *Client) learn(h healthWire) error {
	if h.Frames < framesVersion {
		return fmt.Errorf("shardrpc: shard %d at %s: %w: the shardd does not read binary frames; upgrade every shardd before the router",
			c.idx, c.base, shard.ErrNotRegistered)
	}
	c.frames.Store(true)
	return nil
}

// statusErr turns a non-2xx response into an error: 5xx means the shard
// cannot serve (unavailable — it may be awaiting a snapshot handoff), 4xx
// is a protocol bug and is reported as-is.
func (c *Client) statusErr(ctx context.Context, op string, resp *http.Response) error {
	var eb errorBody
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
	msg := eb.Error
	if msg == "" {
		msg = resp.Status
	}
	if resp.StatusCode >= 500 {
		return c.transportErr(ctx, op, fmt.Errorf("status %d: %s", resp.StatusCode, msg))
	}
	return fmt.Errorf("shardrpc: shard %d %s: status %d: %s", c.idx, op, resp.StatusCode, msg)
}

// RegisterItems implements shard.Shard: the deterministic batch prologue,
// broadcast before a query batch. changed round-trips the shard's "did
// the replicated dictionaries advance" report.
func (c *Client) RegisterItems(ctx context.Context, items []model.Item) (bool, error) {
	if err := c.Preflight(ctx); err != nil {
		return false, err
	}
	var resp registerRespWire
	if err := c.do(ctx, "register", pathRegister, encodeBody(func(f *frameWriter) { f.register(items) }), &resp); err != nil {
		return false, err
	}
	return resp.Changed, nil
}

// observeRespWire is the response of POST /shard/v1/observe.
type observeRespWire struct {
	reportWire
	Error *errWire `json:"error,omitempty"`
}

// ObserveBatch implements shard.Shard: ships one micro-batch (the atomic
// replication unit) and returns the shard's BatchReport with sentinel
// error identities restored.
func (c *Client) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	if err := c.Preflight(ctx); err != nil {
		return core.BatchReport{}, err
	}
	var resp observeRespWire
	if err := c.do(ctx, "observe", pathObserve, encodeBody(func(f *frameWriter) { f.observe(batch) }), &resp); err != nil {
		return core.BatchReport{}, err
	}
	return resp.report(), decodeErr(resp.Error)
}

// Recommend implements shard.Shard: the scatter leg. The query is
// multiplexed over the shard's long-lived query stream (one stream per
// shard, not per item — see querystream.go): an ask frame out and a
// terminal frame back. The shard searches against its own fresh
// bound and b is ignored: neither end relays the other's bound, because a
// search (a fraction of a millisecond) ends before a relayed raise
// arrives. The shard's owned-users top-k is exact on its own, so the
// merged global result is bit-identical, and the result's Stats depend
// on the shard's state and the query alone.
//
// The shard registers the item before it searches, so the ask is sent
// even when ctx is already done: a cancelled call still registers, and
// returns ctx's error with the registration's changed flag. The codec
// check before it ignores ctx's cancellation for the same reason. A nil
// ctx reads as context.Background().
//
// A cached stream can outlive its peer: a shardd restarted at the same
// address leaves the client a stream whose reader has not yet seen the
// old connection die. When such a stream fails before this ask's
// terminal frame arrives, the call drops it and asks once more on a
// freshly dialled stream. A fresh stream that fails is not retried, so a
// dead shard costs one dial, not a loop. The first ask may have
// registered the item before the stream failed; registering it again is
// a no-op, and a retried ask reports changed conservatively.
func (c *Client) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, _ *sigtree.Bound) (core.Result, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for retry := false; ; retry = true {
		if err := c.Preflight(context.WithoutCancel(ctx)); err != nil {
			return core.Result{ItemID: v.ID}, false, err
		}
		ms, cached, err := c.muxStream()
		if err != nil {
			// Already classified by dialMux (unavailable or refused).
			return core.Result{ItemID: v.ID}, false, err
		}
		res, changed, lost, err := ms.recommend(ctx, v, o)
		if !lost || !cached || retry {
			return res, changed || retry, err
		}
		c.dropMux(ms)
	}
}

// Stats implements shard.Shard. A transport failure reports zero-valued
// stats (Trained=false) — the Router's readiness and ops surfaces treat
// that as "unreachable".
func (c *Client) Stats() shard.Stats {
	ctx, cancel := context.WithTimeout(context.Background(), statsTimeout)
	defer cancel()
	var w statsWire
	if err := c.do(ctx, "stats", pathStats, nil, &w); err != nil {
		return shard.Stats{Shard: c.idx}
	}
	return w.stats()
}

// Ping implements shard.Pinger: nil only when the shard is reachable,
// reports the expected identity AND is trained (ready to serve). A
// restarted-but-blank shardd therefore stays excluded until a snapshot
// handoff boots it. The probe keys on /readyz (a blank shard answers 503
// there, which statusErr classifies unavailable). A shardd that does not
// announce the frame codec is refused, as Preflight refuses it, so it is
// never re-included. The returned epoch is
// the shard's boot-epoch token (minted per snapshot boot), which the
// Router uses to refuse re-including a shard that kept running
// pre-exclusion state.
func (c *Client) Ping(ctx context.Context) (string, error) {
	var h healthWire
	if err := c.do(ctx, "readyz", pathReadyz, nil, &h); err != nil {
		return "", err
	}
	if h.Shard != c.idx || h.Of != c.of {
		return "", fmt.Errorf("shardrpc: shard at %s identifies as %d/%d, want %d/%d",
			c.base, h.Shard, h.Of, c.idx, c.of)
	}
	if err := c.learn(h); err != nil {
		return "", err
	}
	if !h.Trained {
		return "", unavailable(c.idx, "readyz", fmt.Errorf("shard is not trained (awaiting snapshot handoff)"))
	}
	return h.BootEpoch, nil
}

// Handoff implements shard.SnapshotReceiver: ships a trained-engine
// snapshot (core.SaveTo bytes); the shardd reboots from it via
// core.LoadShardFrom, materialising only its owned leaf partition.
func (c *Client) Handoff(ctx context.Context, snapshot []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+pathSnapshot, bytes.NewReader(snapshot))
	if err != nil {
		return fmt.Errorf("shardrpc: snapshot: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(headerShardIndex, strconv.Itoa(c.idx))
	req.Header.Set(headerShardCount, strconv.Itoa(c.of))
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return c.transportErr(ctx, "snapshot", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return c.statusErr(ctx, "snapshot", resp)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	return nil
}

// Snapshot implements shard.SnapshotProvider: downloads the shard's full
// engine snapshot (GET /shard/v1/snapshot) — the source end of the
// supervisor's auto-reseed. Any trained shard's snapshot can seed any
// replica of any slot: it carries the complete replicated state, and the
// receiver rebuilds its own leaf partition on load.
func (c *Client) Snapshot(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+pathSnapshot, nil)
	if err != nil {
		return nil, fmt.Errorf("shardrpc: snapshot export: %w", err)
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, c.transportErr(ctx, "snapshot export", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, c.statusErr(ctx, "snapshot export", resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, c.transportErr(ctx, "snapshot export", err)
	}
	return data, nil
}

// Replay implements shard.Replayer: streams just the write batches a
// stale shard missed (POST /shard/v1/replay) — the supervisor's cheap
// alternative to a full snapshot handoff when the debt is small. The
// shard applies the batches in order and mints a fresh boot epoch, so
// the next Ping shows the proof-of-reseed the fail-closed probe rules
// require.
func (c *Client) Replay(ctx context.Context, batches []shard.ReplayBatch) error {
	if err := c.Preflight(ctx); err != nil {
		return err
	}
	var resp replayRespWire
	return c.do(ctx, "replay", pathReplay, encodeBody(func(f *frameWriter) { f.replay(batches) }), &resp)
}

// Compile-time interface checks.
var (
	_ shard.Shard            = (*Client)(nil)
	_ shard.Pinger           = (*Client)(nil)
	_ shard.SnapshotReceiver = (*Client)(nil)
	_ shard.SnapshotProvider = (*Client)(nil)
	_ shard.Replayer         = (*Client)(nil)
	_ shard.Preflighter      = (*Client)(nil)
)
