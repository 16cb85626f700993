// Package server exposes a trained ssRec engine over a JSON HTTP API — the
// adoption path for systems that want stream recommendation as a sidecar
// service rather than an embedded library.
//
// The batch-first v2 protocol (see v2.go) is the request/response
// surface, and /v2/session (see session.go) is the streaming profile —
// one full-duplex NDJSON stream of interleaved observations, queries and
// pushed answers with credit-based flow control:
//
//	POST /v2/session     NDJSON duplex (obs/ask/flush ⇄ credit/result/done)
//	POST /v2/recommend   {"items":[{...}...], "k":10}  → per-item results
//	POST /v2/observe     NDJSON bulk ingest            → streamed statuses
//	GET  /v2/stats                                     → index + serving + session stats
//	GET  /healthz                                      → liveness
//
// Every response carries an X-Request-ID (caller-supplied or generated)
// and feeds the per-route latency counters reported by /v2/stats.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/telemetry"
	"ssrec/internal/wal"
)

// Backend is the engine surface the server serves. Three implementations
// ship: *core.Engine (one in-process engine), *wal.Durable (that engine
// behind the durable ingest log) and *shard.Router (an N-shard
// scatter-gather deployment) — the wire protocol is identical either way,
// which the conformance suite in internal/shard guarantees. A backend
// that additionally implements ShardStats() []shard.Stats gets per-shard
// entries in /v2/stats.
type Backend interface {
	RecommendBatch(ctx context.Context, items []model.Item, opts ...core.Option) ([]core.Result, error)
	ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error)
	Users() int
	IndexView() core.IndexStatsView
}

// shardStatser is the optional Backend extension behind the per-shard
// /v2/stats entries.
type shardStatser interface {
	ShardStats() []shard.Stats
}

// walLogger is the optional Backend extension behind the /v2/stats wal
// block and the ssrec_wal_appends_total gauge: a durable backend exposes
// its write-ahead log.
type walLogger interface {
	Log() *wal.Log
}

// replicaStatser is the optional Backend extension behind the per-slot
// replica health block and the supervisor counters in /v2/stats.
type replicaStatser interface {
	ReplicaHealth() []shard.ReplicaState
	SupervisorStats() (shard.SupervisorStats, bool)
}

// reshardStatser is the optional Backend extension behind the /v2/stats
// resharding block: the in-flight (or last finished) online split/merge.
type reshardStatser interface {
	ReshardStatus() shard.ReshardStatus
}

// resharder is the optional Backend extension behind the flag-gated
// POST /v2/reshard admin trigger — an in-process online split/merge.
type resharder interface {
	Reshard(ctx context.Context, m int, members ...shard.Shard) error
}

// Compile-time checks: the shipped backends satisfy the interface.
var (
	_ Backend        = (*core.Engine)(nil)
	_ Backend        = (*wal.Durable)(nil)
	_ walLogger      = (*wal.Durable)(nil)
	_ Backend        = (*shard.Router)(nil)
	_ shardStatser   = (*shard.Router)(nil)
	_ replicaStatser = (*shard.Router)(nil)
	_ reshardStatser = (*shard.Router)(nil)
	_ resharder      = (*shard.Router)(nil)
)

// Server wraps a Backend with an http.Handler.
type Server struct {
	eng       Backend
	mux       *http.ServeMux
	metrics   *apiMetrics
	telemetry *telemetry.Registry
	tracer    *telemetry.Tracer

	// MaxK caps the per-request k to bound response sizes. Default 100.
	MaxK int
	// MaxBatch caps the items of one /v2/recommend call. Default 256.
	MaxBatch int
	// BatchSize is the observe micro-batch: how many NDJSON lines
	// /v2/observe groups into one Engine.ObserveBatch call (one write
	// lock + one index flush per group). Default 64.
	BatchSize int
	// MaxBodyBytes bounds request bodies (/v2/observe streams count their
	// whole body against it). Default 64 MiB.
	MaxBodyBytes int64
	// MaxInflightObserve caps concurrent /v2/observe streams. Excess
	// requests are REJECTED up front with 503 + Retry-After instead of
	// queueing on the engine's write lock — a saturated micro-batch queue
	// must push back, not stall every connected client. Default 16;
	// <= 0 disables the cap.
	MaxInflightObserve int
	// RetryAfter is the hint sent with 503 rejections. Default 1s.
	RetryAfter time.Duration

	// MaxSessions caps concurrent /v2/session streams; excess requests
	// are rejected with the same 503 + Retry-After admission path as
	// /v2/observe. Default 64; <= 0 disables the cap.
	MaxSessions int
	// SessionCredit is the per-session flow-control window: how many
	// command lines may be in flight (sent, effect not yet durable)
	// before a client must wait for credit. Bounds per-session server
	// memory. Default DefaultSessionCredit.
	SessionCredit int
	// SessionRate paces each session to this many command lines per
	// second (token bucket; SessionBurst is the bucket size). <= 0 (the
	// default) leaves sessions unpaced.
	SessionRate float64
	// SessionBurst is the token-bucket burst of SessionRate. Default
	// max(1, SessionRate).
	SessionBurst int
	// SessionLinger flushes a session's pending observations at most this
	// long after the first one arrived, so trickle streams are ingested
	// promptly without waiting for a full micro-batch. New sets
	// 200ms; <= 0 disables the timer (flush points then depend only on
	// the command sequence, which the conformance suite relies on).
	SessionLinger time.Duration

	// AuthToken, when non-empty, requires "Authorization: Bearer <token>"
	// on every /v2/* route (including /v2/session); mismatches answer 401.
	// Only /healthz and /metrics stay open. Set before serving; not
	// synchronised.
	AuthToken string

	// TraceAll, when true, opens a root trace span for EVERY request
	// (the -trace flag). When false, only requests carrying an
	// X-Ssrec-Trace header are traced — a caller opts one request in.
	// Set before serving; not synchronised.
	TraceAll bool

	// PrincipalRate, when > 0, paces each principal (the bearer token
	// when AuthToken is set, else the remote host) to this many /v2
	// requests per second (token bucket; PrincipalBurst is the bucket
	// size, default max(1, PrincipalRate)). Excess requests answer 429 +
	// Retry-After. Set before serving; not synchronised.
	PrincipalRate float64
	// PrincipalBurst is the token-bucket burst of PrincipalRate.
	PrincipalBurst int

	// AdminReshard gates the POST /v2/reshard admin trigger (the
	// -admin-reshard flag): an online in-process split/merge of a sharded
	// backend. Off by default — resharding is an operator action, not a
	// client one, and the endpoint is refused with 403 until enabled. Set
	// before serving; not synchronised.
	AdminReshard bool

	// inflightObserve counts running /v2/observe streams;
	// inflightSessions counts open /v2/session streams.
	inflightObserve  atomic.Int64
	inflightSessions atomic.Int64
	// sessions aggregates the /v2/session counters for /v2/stats.
	sessions sessionCounters

	// principals holds the per-principal quota buckets of PrincipalRate;
	// principalsSwept is its size after the last sweep (takePrincipal).
	principalMu     sync.Mutex
	principals      map[string]*principalBucket
	principalsSwept int
}

// New builds a server around a (trained) Backend: a single engine, that
// engine behind its write-ahead log, or a sharded deployment.
func New(b Backend) *Server {
	reg := telemetry.NewRegistry()
	s := &Server{
		eng:                b,
		mux:                http.NewServeMux(),
		metrics:            newAPIMetrics(reg),
		telemetry:          reg,
		tracer:             telemetry.NewTracer(),
		principals:         make(map[string]*principalBucket),
		MaxK:               100,
		MaxBatch:           256,
		BatchSize:          64,
		MaxBodyBytes:       64 << 20,
		MaxInflightObserve: 16,
		RetryAfter:         time.Second,
		MaxSessions:        64,
		SessionCredit:      DefaultSessionCredit,
		SessionLinger:      200 * time.Millisecond,
	}
	s.mux.HandleFunc("POST /v2/recommend", s.handleRecommendV2)
	s.mux.HandleFunc("POST /v2/observe", s.handleObserveV2)
	s.mux.HandleFunc("POST /v2/session", s.handleSessionV2)
	s.mux.HandleFunc("GET /v2/stats", s.handleStatsV2)
	s.mux.HandleFunc("POST /v2/reshard", s.handleReshardV2)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.Handle("GET /metrics", reg.Handler())
	s.mux.HandleFunc("GET /v2/trace/{id}", s.handleTraceV2)
	s.registerGauges()
	return s
}

// Handler returns the instrumented HTTP handler (request IDs, latency
// counters, tracing, bearer auth and per-principal quotas on /v2 when
// configured).
func (s *Server) Handler() http.Handler {
	return s.instrument(s.requireAuth(s.principalQuota(s.mux)))
}

// Metrics exposes the server's telemetry registry, so a daemon can
// register process-level gauges beside the serving metrics.
func (s *Server) Metrics() *telemetry.Registry { return s.telemetry }

// Tracer exposes the span buffer behind /v2/trace/{id}; daemons
// configure the slow-query log on it before serving.
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// itemJSON is the wire form of a social item.
type itemJSON struct {
	ID          string   `json:"id"`
	Category    string   `json:"category"`
	Producer    string   `json:"producer"`
	Entities    []string `json:"entities"`
	Description string   `json:"description,omitempty"`
	Timestamp   int64    `json:"timestamp"`
}

func (it itemJSON) model() model.Item {
	return model.Item{
		ID: it.ID, Category: it.Category, Producer: it.Producer,
		Entities: it.Entities, Description: it.Description, Timestamp: it.Timestamp,
	}
}

func (it itemJSON) validate() error {
	if it.ID == "" {
		return fmt.Errorf("item.id is required")
	}
	if it.Category == "" {
		return fmt.Errorf("item.category is required")
	}
	return nil
}

type recommendationJSON struct {
	UserID string  `json:"user_id"`
	Score  float64 `json:"score"`
}

// ---- plumbing ----

func decodeLimit(w http.ResponseWriter, r *http.Request, dst any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response already committed
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// rejectStatus is the ONE push-back path of the v2 surface: the 503
// admission rejections (/v2/observe, /v2/session) and the 429 quota
// rejections all format their body and Retry-After header here, so the
// two cannot drift apart. The header carries whole seconds, rounded up,
// per RFC 9110.
func (s *Server) rejectStatus(w http.ResponseWriter, status int, msg string) {
	retry := s.RetryAfter
	if retry <= 0 {
		retry = time.Second
	}
	w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
	httpError(w, status, fmt.Sprintf("%s; retry after %v", msg, retry))
}

// rejectOverloaded is the 503 admission-rejection of /v2/observe
// (MaxInflightObserve) and /v2/session (MaxSessions).
func (s *Server) rejectOverloaded(w http.ResponseWriter, msg string) {
	s.rejectStatus(w, http.StatusServiceUnavailable, msg)
}
