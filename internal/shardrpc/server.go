// Package shardrpc is the network transport of the sharded CPPse-index:
// it carries the shard.Shard seam cut in the in-process sharding work
// over HTTP/2 + NDJSON, so a shard.Router can drive a mix of in-process
// and remote shards transparently.
//
// # Protocol
//
// One shardd process serves one shard of a deployment. All endpoints are
// rooted under /shard/v1 and speak JSON, except the query stream (NDJSON,
// full-duplex) and the snapshot transfer (raw core.SaveTo bytes):
//
//	GET  /shard/v1/livez        → {shard, of, trained, boot_epoch} (always 200)
//	GET  /shard/v1/readyz       → same body; 503 until booted AND trained
//	GET  /shard/v1/stats        → shard.Stats
//	POST /shard/v1/register     {items:[...]}            → {changed}
//	POST /shard/v1/observe      {observations:[...]}     → BatchReport
//	POST /shard/v1/query_stream NDJSON duplex (see below)
//	POST /shard/v1/snapshot     raw snapshot bytes       → 204
//	GET  /shard/v1/snapshot                              → raw snapshot bytes
//	POST /shard/v1/replay       {batches:[...]}          → {applied, boot_epoch}
//	POST /shard/v1/reshard      {slot, partition}        → {staged}
//
// # The bound-streaming query stream
//
// The scatter leg of a query must share ONE lower bound across every
// shard to keep Algorithm 1's pruning global. Over the wire this becomes
// one long-lived full-duplex NDJSON exchange per shard on a single HTTP/2
// stream, multiplexing every in-flight query by a stream-scoped id
// (querystream.go): the router sends an ask line per query (item,
// resolved options, the shared bound's current value), then `{"id":n,
// "b":x}` raise lines whenever the ROUTER-side bound rises (i.e. another
// shard published a better k-th score); the shard streams its own raises
// back the same way and ends each query with its `{"id":n,"result":...}`
// line. Both ends fold incoming raises with sigtree.Bound.Raise — a
// lock-free monotone max — which makes the protocol drift-tolerant BY
// CONSTRUCTION: raises may be delayed, duplicated, reordered or dropped
// entirely and the search stays exact, because the bound only ever
// prunes entries strictly below the true global k-th score. A late raise
// costs pruning work, never results.
// That is the paper's Algorithm 1 lower-bound argument carried over the
// network unchanged; the stream-replay conformance suite
// (conformance_test.go here, sharing the internal/shardtest fixture)
// asserts remote deployments are bit-identical to the single engine.
//
// # Replication and recovery
//
// The write path (RegisterItems, ObserveBatch) is applied under a
// detached context once a request body has been fully received: the
// micro-batch is the atomic replication unit, and a client disconnect
// must not leave this shard half a batch behind its siblings. A shard
// that DID miss batches (crash, network partition — the Router excludes
// it on the first ErrShardUnavailable) rejoins by rebooting from a fresh
// snapshot handoff (POST /shard/v1/snapshot → core.LoadShardFrom), which
// restores the replicated dictionaries and rebuilds only its owned leaf
// partition. See OPERATIONS.md for the runbook.
package shardrpc

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/telemetry"
	"ssrec/internal/wal"
)

// bootState pairs an installed engine with the boot-epoch token minted
// for it. The pair is published atomically: a health probe must never
// observe a new epoch with the previous engine still serving (the Router
// would read that as "re-seeded" and re-include a stale shard), so the
// epoch and the engine travel in one pointer.
type bootState struct {
	local *shard.Local
	// durable is the same engine behind the server's WAL; nil without
	// one. One Durable serves every boot of a server, so its mutex orders
	// each write against the handoff that replaces the engine.
	durable *wal.Durable
	epoch   string
}

// writer is the write surface of a shard: its Local, or its Durable when
// the server logs. Every write handler, the delta replay and the snapshot
// handoff go through it.
type writer interface {
	RegisterItems(ctx context.Context, items []model.Item) (bool, error)
	ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error)
}

func (b *bootState) writer() writer {
	if b.durable != nil {
		return b.durable
	}
	return b.local
}

// Server is the shardd request handler: one engine shard behind the
// shard RPC protocol. A Server boots either from Boot (an engine loaded
// in-process, e.g. from a -model file) or over the wire via the snapshot
// handoff; until then every serving endpoint answers 503.
type Server struct {
	idx, of int
	boot    atomic.Pointer[bootState]

	// Parallelism, when > 0, is applied to every engine booted by a
	// snapshot handoff (the shardd -partitions flag).
	Parallelism int
	// AuthToken, when non-empty, requires "Authorization: Bearer <token>"
	// on EVERY endpoint (health included — the Router's prober carries the
	// token); mismatches answer 401. The shardd -auth-token flag. Set
	// before serving; not synchronised.
	AuthToken string
	// BoundFlush overrides DefaultBoundFlush for the raise stream when > 0.
	BoundFlush time.Duration
	// MaxBodyBytes bounds JSON request bodies (default 64 MiB).
	MaxBodyBytes int64
	// MaxSnapshotBytes bounds snapshot handoffs (default 1 GiB).
	MaxSnapshotBytes int64
	// WAL, when non-nil, is the shard's durable ingest log: every boot
	// wraps the engine in a wal.Durable, which appends each admitted write
	// batch (fsynced per the log's policy) BEFORE applying it, so an
	// acknowledged batch is always recoverable — a shard that cannot
	// persist a batch refuses it with a 5xx, which the router treats as a
	// missed write. Set before serving; not synchronised.
	WAL *wal.Log
	// bootMu serialises boots, so the engine the Durable holds and the
	// engine published for reads always come from the same handoff.
	bootMu sync.Mutex

	// reshardPending is the partition table staged by POST /shard/v1/
	// reshard: the next snapshot handoff consumes it and boots via
	// core.LoadPartitionFrom — the data half of the online split/merge
	// protocol. Nil outside a reshard seeding.
	reshardPending atomic.Pointer[model.Partition]

	// reg/tracer are the shard's telemetry surface: GET /metrics serves
	// the registry, and traces resumed off incoming asks (qsAsk.Trace,
	// X-Ssrec-Trace on writes) are retained here and fetchable via
	// GET /shard/v1/trace/{id}.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer

	mux *http.ServeMux
}

// NewServer builds the handler for shard idx of an of-wide deployment.
func NewServer(idx, of int) (*Server, error) {
	if of < 1 {
		of = 1
	}
	if idx < 0 || idx >= of {
		return nil, fmt.Errorf("shardrpc: shard index %d out of range [0,%d)", idx, of)
	}
	s := &Server{
		idx:              idx,
		of:               of,
		MaxBodyBytes:     64 << 20,
		MaxSnapshotBytes: 1 << 30,
		reg:              telemetry.NewRegistry(),
		tracer:           telemetry.NewTracer(),
		mux:              http.NewServeMux(),
	}
	s.registerGauges()
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.HandleFunc("GET /shard/v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET "+pathLivez, s.handleLivez)
	s.mux.HandleFunc("GET "+pathReadyz, s.handleReadyz)
	s.mux.HandleFunc("GET "+pathStats, s.handleStats)
	s.mux.HandleFunc("POST "+pathRegister, s.handleRegister)
	s.mux.HandleFunc("POST "+pathObserve, s.handleObserve)
	s.mux.HandleFunc("POST "+pathQueryStream, s.handleQueryStream)
	s.mux.HandleFunc("POST "+pathSnapshot, s.handleSnapshot)
	s.mux.HandleFunc("GET "+pathSnapshot, s.handleSnapshotExport)
	s.mux.HandleFunc("POST "+pathReplay, s.handleReplay)
	s.mux.HandleFunc("POST "+pathReshard, s.handleReshard)
	return s, nil
}

// Boot installs a loaded engine as this server's shard and mints a fresh
// boot epoch (published atomically with the engine). The engine must
// have been loaded with the matching shard identity (core.LoadShardFrom
// with the same idx/of) or built with Config.ShardIndex/ShardCount set.
// With a WAL the engine is a new baseline the log's records do not
// describe, so Boot rebases the Durable onto it, which always anchors a
// checkpoint; when that fails the previous engine keeps serving.
func (s *Server) Boot(e *core.Engine) error {
	s.bootMu.Lock()
	defer s.bootMu.Unlock()
	var d *wal.Durable
	if s.WAL != nil {
		if prev := s.boot.Load(); prev != nil {
			d = prev.durable
		} else {
			d = wal.NewDurable(s.WAL, e)
		}
		if err := d.Rebase(e); err != nil {
			return err
		}
	}
	s.publish(e, d)
	return nil
}

// publish installs e (and its Durable, if any) under a fresh boot epoch,
// applying the -partitions override. The caller holds bootMu.
func (s *Server) publish(e *core.Engine, d *wal.Durable) {
	if s.Parallelism > 0 {
		e.SetParallelism(s.Parallelism)
	}
	s.boot.Store(&bootState{local: shard.NewLocal(s.idx, e), durable: d, epoch: newEpoch()})
}

func newEpoch() string {
	var nonce [8]byte
	rand.Read(nonce[:]) //nolint:errcheck // crypto/rand never fails on supported platforms
	return hex.EncodeToString(nonce[:])
}

// refreshEpoch mints a fresh boot epoch for the CURRENT engine — the
// proof-of-state-change a delta replay must publish so the fail-closed
// probe rules re-include the caught-up shard (and so a replay whose
// acknowledgement was lost still shows up as "state changed" on the
// next probe).
func (s *Server) refreshEpoch() string {
	b := s.boot.Load()
	if b == nil {
		return ""
	}
	nb := &bootState{local: b.local, durable: b.durable, epoch: newEpoch()}
	s.boot.Store(nb)
	return nb.epoch
}

// Booted reports whether an engine is installed.
func (s *Server) Booted() bool { return s.boot.Load() != nil }

// BootFromWAL recovers the shard from its attached WAL with zero manual
// steps (wal.Recover: the latest checkpoint plus the delta tail) and
// boots it. recovered is false — with no error — when the WAL is empty (a
// genuinely blank shard: boot from -model or await a handoff); a WAL with
// records but no checkpoint is refused.
func (s *Server) BootFromWAL(ctx context.Context) (recovered bool, replayed int, err error) {
	if s.WAL == nil {
		return false, 0, fmt.Errorf("shardrpc: no WAL attached")
	}
	d, replayed, err := wal.Recover(ctx, s.WAL, func(r io.Reader) (*core.Engine, error) {
		return core.LoadShardFrom(r, s.idx, s.of)
	})
	if err != nil || d == nil {
		return false, replayed, err
	}
	s.bootMu.Lock()
	defer s.bootMu.Unlock()
	s.publish(d.Engine(), d)
	return true, replayed, nil
}

// Metrics exposes the shard's telemetry registry (the GET /metrics
// surface) for embedders and tests.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Tracer exposes the shard's span store (the GET /shard/v1/trace/{id}
// surface) for embedders and tests.
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// registerGauges wires scrape-time gauges over state other code already
// tracks — no double bookkeeping on any hot path.
func (s *Server) registerGauges() {
	s.reg.GaugeFunc("ssrec_shard_index", "Shard index of this process.",
		func() float64 { return float64(s.idx) })
	s.reg.GaugeFunc("ssrec_shard_of", "Shard count of the deployment.",
		func() float64 { return float64(s.of) })
	s.reg.GaugeFunc("ssrec_shard_trained", "1 when the shard is booted and trained, else 0.", func() float64 {
		if b := s.boot.Load(); b != nil && b.local.Engine().Trained() {
			return 1
		}
		return 0
	})
	s.reg.GaugeFunc("ssrec_shard_index_users", "Users indexed by the booted engine.", func() float64 {
		if b := s.boot.Load(); b != nil {
			return float64(b.local.Engine().Users())
		}
		return 0
	})
	s.reg.GaugeFunc("ssrec_shard_wal_last_seq", "Last appended WAL sequence number (0 without a WAL).", func() float64 {
		if s.WAL != nil {
			return float64(s.WAL.Stats().LastSeq)
		}
		return 0
	})
}

// handleTrace serves the spans this shard retained for one trace id —
// the same payload the terminal qsLine ships to the router, kept
// for direct inspection of a single shardd.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := s.tracer.Trace(id)
	if spans == nil {
		s.httpError(w, http.StatusNotFound, "unknown trace id %q (evicted or never recorded)", id)
		return
	}
	s.writeJSON(w, http.StatusOK, traceRespWire{TraceID: id, Spans: spans})
}

// Handler returns the shard RPC handler (bearer-auth wrapped when
// AuthToken is set), instrumented with per-route request counters and
// latency summaries.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.authorized(r) {
			w.Header().Set("WWW-Authenticate", `Bearer realm="ssrec-shard"`)
			s.httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		start := time.Now()
		s.mux.ServeHTTP(w, r)
		// ServeMux stamps the matched pattern onto the request it routed,
		// so the label is the route, never raw (unbounded) URL paths.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		s.reg.Counter("ssrec_shard_rpc_requests_total", "Shard RPC requests served, by route.", "route", route).Inc()
		s.reg.Histogram("ssrec_shard_rpc_seconds", "Shard RPC handler latency, by route.", "route", route).Observe(time.Since(start))
	})
}

// authorized checks the bearer token in constant time. An unset AuthToken
// leaves the server open (the pre-auth trusted-network mode).
func (s *Server) authorized(r *http.Request) bool {
	if s.AuthToken == "" {
		return true
	}
	tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(tok), []byte(s.AuthToken)) == 1
}

// NewHTTPServer wraps the handler in an http.Server with unencrypted
// HTTP/2 enabled — REQUIRED for the full-duplex query stream (the bound
// raise streams flow both ways on one stream; plain HTTP/1.1 cannot do
// that client-side). No read/write timeouts are set: query streams
// legitimately outlive any fixed budget, so deadlines belong to the
// caller's context. ReadHeaderTimeout still bounds header slow-loris.
func (s *Server) NewHTTPServer(addr string) *http.Server {
	p := new(http.Protocols)
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		Protocols:         p,
		ReadHeaderTimeout: 10 * time.Second,
	}
}

func (s *Server) boundFlush() time.Duration {
	if s.BoundFlush > 0 {
		return s.BoundFlush
	}
	return DefaultBoundFlush
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response already committed
}

func (s *Server) httpError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// serving returns the booted shard or answers 503 (the client maps 5xx to
// ErrShardUnavailable — an unbooted shard is indistinguishable from an
// unreachable one, and both are cured by a snapshot handoff).
func (s *Server) serving(w http.ResponseWriter) *bootState {
	b := s.boot.Load()
	if b == nil {
		s.httpError(w, http.StatusServiceUnavailable, "shard %d/%d not booted (awaiting snapshot handoff)", s.idx, s.of)
		return nil
	}
	return b
}

// handleLivez answers 200 whenever the process serves HTTP at all — the
// restart-this-process signal. A blank shardd awaiting its snapshot
// handoff is alive (restarting it would not help), just not ready.
func (s *Server) handleLivez(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.healthSnapshot())
}

// handleReadyz answers 200 only when the shard is booted AND trained —
// safe to route traffic to; 503 otherwise (blank, awaiting handoff). The
// Router's probe path keys on this status.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.healthSnapshot()
	if !h.Trained {
		s.httpError(w, http.StatusServiceUnavailable, "shard %d/%d not ready (awaiting snapshot handoff)", s.idx, s.of)
		return
	}
	s.writeJSON(w, http.StatusOK, h)
}

func (s *Server) healthSnapshot() healthWire {
	h := healthWire{Shard: s.idx, Of: s.of}
	if b := s.boot.Load(); b != nil {
		h.Trained = b.local.Engine().Trained()
		h.BootEpoch = b.epoch
	}
	return h
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	b := s.serving(w)
	if b == nil {
		return
	}
	st := b.local.Stats()
	if s.WAL != nil {
		ws := s.WAL.Stats()
		st.WAL = &ws
	}
	s.writeJSON(w, http.StatusOK, toStatsWire(st))
}

// resumeWrite resumes the caller's trace off the X-Ssrec-Trace request
// header for a detached write-path apply: the returned context is
// detached from the client connection (the atomic-replication contract)
// but still carries the trace, so WAL-append spans land in this shard's
// tracer parented under the router's write span. Both returns are safe
// zero values when the request carries no trace.
func (s *Server) resumeWrite(r *http.Request, name string) (context.Context, *telemetry.Span) {
	ctx := context.WithoutCancel(r.Context())
	hv := r.Header.Get(telemetry.TraceHeader)
	if hv == "" {
		return ctx, nil
	}
	ctx, _ = s.tracer.Resume(ctx, hv)
	ctx, sp := telemetry.StartSpan(ctx, name)
	sp.SetAttr("shard", strconv.Itoa(s.idx))
	return ctx, sp
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		s.httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return false
	}
	return true
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	b := s.serving(w)
	if b == nil {
		return
	}
	var req registerWire
	if !s.decode(w, r, &req) {
		return
	}
	items := make([]model.Item, len(req.Items))
	for i, it := range req.Items {
		items[i] = it.model()
	}
	// Detached context: the batch arrived in full, so it is applied in
	// full — a disconnecting router must not leave this shard's producer
	// layer behind its siblings'. With a WAL the batch is persisted FIRST
	// (ack-after-durable): a crash between append and apply replays the
	// record on recovery, a crash before the append loses only an
	// unacknowledged batch the router will re-drive.
	ctx, wspan := s.resumeWrite(r, "shardd.register")
	defer wspan.End()
	changed, err := b.writer().RegisterItems(ctx, items)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "register: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, registerRespWire{Changed: changed})
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	b := s.serving(w)
	if b == nil {
		return
	}
	var req observeWire
	if !s.decode(w, r, &req) {
		return
	}
	batch := make([]core.Observation, len(req.Observations))
	for i, o := range req.Observations {
		batch[i] = core.Observation{UserID: o.UserID, Item: o.Item.model(), Timestamp: o.Timestamp}
	}
	// Detached for the same atomic-replication reason as handleRegister,
	// and persisted before applied for the same ack-after-durable reason.
	ctx, wspan := s.resumeWrite(r, "shardd.observe")
	defer wspan.End()
	rep, err := b.writer().ObserveBatch(ctx, batch)
	if errors.Is(err, wal.ErrNotLogged) {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, observeRespWire{reportWire: toReportWire(rep), Error: encodeErr(err)})
}

// handleReshard stages a reshard: the router announces, before the
// snapshot handoff, that this shard's next boot is slot `slot` of the
// deployment partitioned by the posted versioned block table. The slot
// and width must match the identity this shardd was started with —
// resharding onto remote members means starting fresh processes with the
// FINAL identity (-index i -of m) and pointing the reshard at them.
func (s *Server) handleReshard(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "reshard: %v", err)
		return
	}
	slot, p, err := decodeReshardRequest(body)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if slot != s.idx || p.Shards != s.of {
		s.httpError(w, http.StatusConflict, "reshard addresses slot %d of %d, this shard is %d/%d", slot, p.Shards, s.idx, s.of)
		return
	}
	s.reshardPending.Store(&p)
	s.writeJSON(w, http.StatusOK, reshardRespWire{Staged: true})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// Refuse a handoff addressed to a different shard identity — booting
	// the wrong leaf partition would silently break the deployment's
	// ownership partition.
	for header, want := range map[string]int{headerShardIndex: s.idx, headerShardCount: s.of} {
		if got := r.Header.Get(header); got != "" {
			if n, err := strconv.Atoi(got); err != nil || n != want {
				s.httpError(w, http.StatusConflict, "%s %q does not match this shard (%d/%d)", header, got, s.idx, s.of)
				return
			}
		}
	}
	var (
		e   *core.Engine
		err error
	)
	if pending := s.reshardPending.Swap(nil); pending != nil {
		// A staged reshard: boot with the successor epoch's versioned
		// table instead of the legacy modular rule. The stage is consumed
		// either way — a failed handoff aborts the whole reshard and any
		// retry re-stages.
		e, err = core.LoadPartitionFrom(http.MaxBytesReader(w, r.Body, s.MaxSnapshotBytes), s.idx, *pending)
	} else {
		e, err = core.LoadShardFrom(http.MaxBytesReader(w, r.Body, s.MaxSnapshotBytes), s.idx, s.of)
	}
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "snapshot: %v", err)
		return
	}
	// With a WAL, Boot anchors the new baseline in a checkpoint, so the
	// log is exactly "this snapshot + every batch admitted after it"
	// again. A shard that cannot persist the baseline must not ack.
	if err := s.Boot(e); err != nil {
		s.httpError(w, http.StatusInternalServerError, "wal checkpoint after handoff: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleReplay is the delta catch-up RPC: the supervisor streams just
// the write batches this shard missed, in sequence order, instead of a
// full snapshot handoff. The shard must already be booted and trained —
// a blank shard has no state to catch up and answers 503, steering the
// supervisor to the snapshot path. Success mints a fresh boot epoch:
// the same proof-of-reseed signal a snapshot handoff produces.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	b := s.serving(w)
	if b == nil {
		return
	}
	if !b.local.Engine().Trained() {
		s.httpError(w, http.StatusServiceUnavailable, "shard %d/%d not trained; needs a snapshot, not a delta", s.idx, s.of)
		return
	}
	var req replayWire
	if !s.decode(w, r, &req) {
		return
	}
	// The same write surface as the live write path: with a WAL every
	// replayed batch is logged before it is applied.
	ctx := context.WithoutCancel(r.Context())
	wr := b.writer()
	applied := 0
	for _, rb := range req.Batches {
		var err error
		switch {
		case rb.Register != nil:
			items := make([]model.Item, len(rb.Register.Items))
			for i, it := range rb.Register.Items {
				items[i] = it.model()
			}
			_, err = wr.RegisterItems(ctx, items)
		case rb.Observe != nil:
			batch := make([]core.Observation, len(rb.Observe.Observations))
			for i, o := range rb.Observe.Observations {
				batch[i] = core.Observation{UserID: o.UserID, Item: o.Item.model(), Timestamp: o.Timestamp}
			}
			_, err = wr.ObserveBatch(ctx, batch)
		default:
			s.httpError(w, http.StatusBadRequest, "replay seq %d: neither register nor observe", rb.Seq)
			return
		}
		if err != nil {
			s.httpError(w, http.StatusInternalServerError, "replay seq %d: %v", rb.Seq, err)
			return
		}
		applied++
	}
	s.writeJSON(w, http.StatusOK, replayRespWire{Applied: applied, BootEpoch: s.refreshEpoch()})
}

// CheckpointWAL checkpoints the booted shard's Durable (a no-op without
// a WAL, before boot, or when nothing was logged since the last
// checkpoint).
func (s *Server) CheckpointWAL() error {
	if b := s.boot.Load(); b != nil && b.durable != nil {
		return b.durable.Checkpoint()
	}
	return nil
}

// handleSnapshotExport streams the booted engine's full snapshot
// (core.SaveTo bytes) — the SOURCE end of the supervisor's auto-reseed:
// any healthy replica can seed any blank or stale one, because a shard
// snapshot carries the complete replicated state and the receiver
// rebuilds its own leaf partition on load.
func (s *Server) handleSnapshotExport(w http.ResponseWriter, _ *http.Request) {
	b := s.serving(w)
	if b == nil {
		return
	}
	l := b.local
	if !l.Engine().Trained() {
		s.httpError(w, http.StatusServiceUnavailable, "shard %d/%d not trained; nothing to export", s.idx, s.of)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerShardIndex, strconv.Itoa(s.idx))
	w.Header().Set(headerShardCount, strconv.Itoa(s.of))
	l.Engine().SaveTo(w) //nolint:errcheck // response already committed; a broken stream fails the client's read
}
