// client.go is the RemoteShard: a shard.Shard implementation that drives
// one shardd process over HTTP/2 + NDJSON. A shard.Router can hold any
// mix of Local and RemoteShard values — the seam is the Shard interface,
// and this client implements the full protocol: broadcast ObserveBatch
// (micro-batch as the atomic replication unit), the multiplexed
// bound-streaming query stream (querystream.go), /stats, health probes
// (shard.Pinger) and snapshot handoff (shard.SnapshotReceiver).
package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
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
	"ssrec/internal/sigtree"
	"ssrec/internal/telemetry"
)

// DefaultBoundFlush is the default sampling interval of the bound-raise
// streams (client→shard and shard→client). A raise is only transmitted
// when the sampled bound rose since the last send, so idle queries cost
// nothing; lowering the interval tightens cross-shard pruning at the cost
// of more tiny frames.
const DefaultBoundFlush = time.Millisecond

// statsTimeout bounds the context-less Stats() snapshot call.
const statsTimeout = 5 * time.Second

// Client is a remote shard: the client half of the shard RPC protocol,
// implementing shard.Shard (plus shard.Pinger and shard.SnapshotReceiver)
// over unencrypted HTTP/2 so one TCP connection multiplexes the broadcast
// write path, concurrent scatter queries and their bound streams.
type Client struct {
	idx  int
	of   int
	base string
	hc   *http.Client

	// BoundFlush overrides DefaultBoundFlush when > 0. Set before first
	// use; not synchronised.
	BoundFlush time.Duration
	// AuthToken, when non-empty, is sent as "Authorization: Bearer" on
	// every request — the shared bearer-token layer of a shardd fleet
	// started with -auth-token. Set before first use; not synchronised.
	AuthToken string

	// muxMu guards the lazily-dialed multiplexed query stream.
	muxMu sync.Mutex
	mux   *muxStream
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

// SplitAddrs parses a comma-separated shardd address list (the -shard-
// addrs / -remote-shards flag syntax), trimming whitespace and dropping
// empty segments. Order is shard-index order: out[i] serves shard i.
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// DialRouter assembles a scatter-gather Router over remote shards, one
// Client per address in shard-index order — the single construction path
// shared by ssrec.Open(WithRemoteShards), ssrec-server -shard-addrs and
// ssrec-bench -remote-shards. No I/O happens here (connections dial
// lazily); boot or re-seed the fleet with Router.HandoffSnapshot, or
// start each shardd with -model.
func DialRouter(addrs []string) (*shard.Router, error) {
	return DialRouterAuth(addrs, "")
}

// DialRouterAuth is DialRouter with a shared bearer token: every shard
// client authenticates as "Authorization: Bearer <token>" against shardds
// started with the matching -auth-token. An empty token dials without
// authentication.
func DialRouterAuth(addrs []string, token string) (*shard.Router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shardrpc: no shard addresses")
	}
	shards := make([]shard.Shard, len(addrs))
	for i, a := range addrs {
		c := NewClient(a, i, len(addrs))
		c.AuthToken = token
		shards[i] = c
	}
	return shard.NewRouter(shards...)
}

// Index implements shard.Shard.
func (c *Client) Index() int { return c.idx }

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

func (c *Client) boundFlush() time.Duration {
	if c.BoundFlush > 0 {
		return c.BoundFlush
	}
	return DefaultBoundFlush
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
	return unavailable(c.idx, op, err)
}

// do runs one JSON exchange. out may be nil for 204-style responses.
func (c *Client) do(ctx context.Context, op, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("shardrpc: encode %s: %w", op, err)
		}
		body = bytes.NewReader(raw)
	}
	method := http.MethodPost
	if in == nil {
		method = http.MethodGet
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("shardrpc: %s: %w", op, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
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
	w := registerWire{Items: make([]itemWire, len(items))}
	for i, v := range items {
		w.Items[i] = toItemWire(v)
	}
	var resp registerRespWire
	if err := c.do(ctx, "register", pathRegister, w, &resp); err != nil {
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
	w := observeWire{Observations: make([]obsWire, len(batch))}
	for i, o := range batch {
		w.Observations[i] = obsWire{UserID: o.UserID, Item: toItemWire(o.Item), Timestamp: o.Timestamp}
	}
	var resp observeRespWire
	if err := c.do(ctx, "observe", pathObserve, w, &resp); err != nil {
		return core.BatchReport{}, err
	}
	return resp.report(), decodeErr(resp.Error)
}

// Recommend implements shard.Shard: the scatter leg. The query is
// multiplexed over the shard's long-lived query stream (one stream per
// shard, not per item — see querystream.go): an ask line out, the shared
// bound's raises relayed in both directions while the search runs, and a
// terminal result line back. Raises are folded with Bound.Raise on both
// ends — a monotone max — so a delayed, duplicated or lost raise only
// costs pruning opportunity, never exactness; even with NO raises
// delivered the shard's owned-users top-k is exact and the merged global
// result is bit-identical.
func (c *Client) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, error) {
	// A caller that already gave up gets its context error, never an
	// answer: once the ask is sent, a fast reply and the cancellation race
	// in the wait below.
	if ctx != nil && ctx.Err() != nil {
		return core.Result{ItemID: v.ID}, ctx.Err()
	}
	ms, err := c.muxStream()
	if err != nil {
		// Already classified by dialMux (unavailable / status error); only
		// caller cancellation overrides it.
		if ctx != nil && ctx.Err() != nil {
			return core.Result{ItemID: v.ID}, ctx.Err()
		}
		return core.Result{ItemID: v.ID}, err
	}
	return ms.recommend(ctx, v, o, b)
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
// there, which statusErr classifies unavailable). The returned epoch is
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

// DialReplicaRouter is DialReplicaRouterAuth without authentication.
func DialReplicaRouter(addrs []string, replicas int) (*shard.Router, error) {
	return DialReplicaRouterAuth(addrs, replicas, "")
}

// DialReplicaRouterAuth assembles a replica-aware Router over remote
// shards: the address list is SLOT-MAJOR — with n = len(addrs)/replicas
// slots, addrs[i*replicas : (i+1)*replicas] are the replicas of slot i,
// every one dialed with shard identity (i, n) and grouped in a
// shard.ReplicaSet. replicas <= 1 degrades to the plain DialRouterAuth
// wiring (no set wrapper).
func DialReplicaRouterAuth(addrs []string, replicas int, token string) (*shard.Router, error) {
	if replicas <= 1 {
		return DialRouterAuth(addrs, token)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shardrpc: no shard addresses")
	}
	if len(addrs)%replicas != 0 {
		return nil, fmt.Errorf("shardrpc: %d addresses do not divide into replica sets of %d", len(addrs), replicas)
	}
	n := len(addrs) / replicas
	sets := make([]shard.Shard, n)
	for i := 0; i < n; i++ {
		members := make([]shard.Shard, replicas)
		for j := 0; j < replicas; j++ {
			c := NewClient(addrs[i*replicas+j], i, n)
			c.AuthToken = token
			members[j] = c
		}
		rs, err := shard.NewReplicaSet(i, members...)
		if err != nil {
			return nil, err
		}
		sets[i] = rs
	}
	return shard.NewRouter(sets...)
}

// Replay implements shard.Replayer: streams just the write batches a
// stale shard missed (POST /shard/v1/replay) — the supervisor's cheap
// alternative to a full snapshot handoff when the debt is small. The
// shard applies the batches in order and mints a fresh boot epoch, so
// the next Ping shows the proof-of-reseed the fail-closed probe rules
// require.
func (c *Client) Replay(ctx context.Context, batches []shard.ReplayBatch) error {
	req := replayWire{}
	for _, b := range batches {
		if len(b.Items) > 0 {
			rw := &registerWire{Items: make([]itemWire, len(b.Items))}
			for i, it := range b.Items {
				rw.Items[i] = toItemWire(it)
			}
			req.Batches = append(req.Batches, replayBatchWire{Seq: b.Seq, Register: rw})
		}
		if len(b.Obs) > 0 {
			ow := &observeWire{Observations: make([]obsWire, len(b.Obs))}
			for i, o := range b.Obs {
				ow.Observations[i] = obsWire{UserID: o.UserID, Item: toItemWire(o.Item), Timestamp: o.Timestamp}
			}
			req.Batches = append(req.Batches, replayBatchWire{Seq: b.Seq, Observe: ow})
		}
	}
	var resp replayRespWire
	return c.do(ctx, "replay", pathReplay, req, &resp)
}

// PrepareReshard implements shard.ReshardPreparer: stages the successor
// partition table on the shardd (POST /shard/v1/reshard) so the snapshot
// handoff that follows boots slot `slot` via core.LoadPartitionFrom —
// the control half of resharding onto remote members (Router.Reshard
// with shardrpc clients for freshly started shardd processes).
func (c *Client) PrepareReshard(ctx context.Context, slot int, p model.Partition) error {
	w := reshardWire{Slot: slot, Partition: toPartitionWire(p)}
	var resp reshardRespWire
	return c.do(ctx, "reshard", pathReshard, w, &resp)
}

// Compile-time interface checks.
var (
	_ shard.Shard            = (*Client)(nil)
	_ shard.Pinger           = (*Client)(nil)
	_ shard.SnapshotReceiver = (*Client)(nil)
	_ shard.SnapshotProvider = (*Client)(nil)
	_ shard.Replayer         = (*Client)(nil)
	_ shard.ReshardPreparer  = (*Client)(nil)
)
