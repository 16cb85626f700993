// v2.go implements the batch-first wire protocol over the engine's v2 API:
//
//	POST /v2/recommend  {"items":[{...}...], "k":10, "parallelism":0,
//	                     "expansion":true}
//	                    → {"results":[{item_id, recommendations} |
//	                                  {item_id, error:{code,message}}]}
//	POST /v2/observe    NDJSON bulk ingest: one observation per line
//	                    {"user_id":..., "item":{...}, "timestamp":...};
//	                    lines are micro-batched into Engine.ObserveBatch
//	                    (BatchSize per write-lock acquisition) and the
//	                    response streams one NDJSON status line per input
//	                    line plus a trailing summary. Statuses arrive in
//	                    processing order (decode failures immediately,
//	                    batched entries at their flush); the "line" field
//	                    keys them back to input order.
//	GET  /v2/stats      index statistics + serving configuration +
//	                    per-route latency counters.
//
// Per-item failures never fail the request: they surface as error objects
// in item order so clients can retry selectively. DESIGN.md maps the
// retired v1 routes to their v2 successors.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/wal"
)

// errorJSON is the structured per-item / per-line error object.
type errorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errCode maps engine sentinel errors to stable wire codes.
func errCode(err error) string {
	switch {
	case errors.Is(err, core.ErrNotTrained):
		return "not_trained"
	case errors.Is(err, core.ErrUnknownCategory):
		return "unknown_category"
	case errors.Is(err, core.ErrInvalidObservation):
		return "invalid_observation"
	case errors.Is(err, shard.ErrShardUnavailable):
		// Degraded sharded deployment: the result is partial (results are
		// still attached beside the error) or the ingest was not fully
		// replicated. Clients may retry once the deployment recovers.
		return "shard_unavailable"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	}
	return "internal"
}

func toErrorJSON(err error) *errorJSON {
	return &errorJSON{Code: errCode(err), Message: err.Error()}
}

// servesPartial reports whether a per-item error still carries exact
// partial results worth serving (a degraded sharded deployment: rankings
// are exact for the reachable shards' owned users). Other errors
// (cancellation) return no list — a truncated search's partial answer is
// not exact for anyone. Shared by /v2/recommend and /v2/session.
func servesPartial(err error) bool {
	return errors.Is(err, shard.ErrShardUnavailable)
}

// ---- POST /v2/recommend ----

type recommendV2Request struct {
	Items []itemJSON `json:"items"`
	// K is the per-item result size (default 10, capped at MaxK).
	K int `json:"k"`
	// Parallelism overrides the engine's partitioned-search worker count
	// for this request when > 0.
	Parallelism int `json:"parallelism"`
	// Expansion disables entity expansion when explicitly false.
	Expansion *bool `json:"expansion"`
}

type resultV2JSON struct {
	ItemID          string               `json:"item_id"`
	Recommendations []recommendationJSON `json:"recommendations,omitempty"`
	Error           *errorJSON           `json:"error,omitempty"`
}

type recommendV2Response struct {
	Results []resultV2JSON `json:"results"`
}

func (s *Server) handleRecommendV2(w http.ResponseWriter, r *http.Request) {
	var req recommendV2Request
	if !decodeLimit(w, r, &req, s.MaxBodyBytes) {
		return
	}
	if len(req.Items) == 0 {
		httpError(w, http.StatusBadRequest, "items is required")
		return
	}
	if len(req.Items) > s.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds the %d-item limit", len(req.Items), s.MaxBatch))
		return
	}
	// Validation-failed items never reach the engine (registering them
	// would pollute the producer layer and the expander with bogus
	// observations); valid items are compacted
	// into the engine batch and results merged back by position.
	items := make([]model.Item, len(req.Items))
	precheck := make([]*errorJSON, len(req.Items))
	valid := make([]model.Item, 0, len(req.Items))
	validIdx := make([]int, 0, len(req.Items))
	for i, it := range req.Items {
		items[i] = it.model()
		if err := it.validate(); err != nil {
			precheck[i] = &errorJSON{Code: "invalid_item", Message: err.Error()}
			continue
		}
		valid = append(valid, items[i])
		validIdx = append(validIdx, i)
	}
	if req.K <= 0 {
		req.K = core.DefaultK
	}
	if req.K > s.MaxK {
		req.K = s.MaxK
	}
	opts := []core.Option{core.WithK(req.K), core.WithParallelism(req.Parallelism)}
	if req.Expansion != nil && !*req.Expansion {
		opts = append(opts, core.WithoutExpansion())
	}
	results, err := s.eng.RecommendBatch(r.Context(), valid, opts...)
	if err != nil && errors.Is(err, core.ErrNotTrained) {
		httpError(w, http.StatusServiceUnavailable, "engine not trained")
		return
	}
	// Request-scoped cancellation: the client is gone, so the status code
	// is best-effort; per-item errors below still describe the partial
	// batch truthfully.
	resp := recommendV2Response{Results: make([]resultV2JSON, len(items))}
	for i := range items {
		resp.Results[i] = resultV2JSON{ItemID: items[i].ID, Error: precheck[i]}
	}
	for j, res := range results {
		out := &resp.Results[validIdx[j]]
		if res.Err != nil {
			out.Error = toErrorJSON(res.Err)
			// Degraded-mode partial results ARE served beside the error
			// (see servesPartial).
			if !servesPartial(res.Err) {
				continue
			}
		}
		out.Recommendations = make([]recommendationJSON, 0, len(res.Recommendations))
		for _, rec := range res.Recommendations {
			out.Recommendations = append(out.Recommendations, recommendationJSON{UserID: rec.UserID, Score: rec.Score})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- POST /v2/observe (NDJSON bulk ingest) ----

// observeLineJSON is one NDJSON input line.
type observeLineJSON struct {
	UserID    string   `json:"user_id"`
	Item      itemJSON `json:"item"`
	Timestamp int64    `json:"timestamp"`
}

// observeStatusJSON is one NDJSON response line: per-line status in input
// order.
type observeStatusJSON struct {
	Line   int        `json:"line,omitempty"`
	Status string     `json:"status"`
	Error  *errorJSON `json:"error,omitempty"`
}

// observeSummaryJSON is the trailing NDJSON summary line (status "done").
// Error is set when the stream terminated on a call-scoped failure — for
// a degraded sharded deployment (code "shard_unavailable") the applied
// counts are real on the reachable shards, but the batches were NOT
// replicated everywhere and the writer should back off until recovery.
type observeSummaryJSON struct {
	Status  string     `json:"status"`
	Applied int        `json:"applied"`
	Invalid int        `json:"invalid"`
	Flushed int        `json:"flushed"`
	Batches int        `json:"batches"`
	Error   *errorJSON `json:"error,omitempty"`
}

// maxNDJSONLine bounds one observation line (1 MiB).
const maxNDJSONLine = 1 << 20

func (s *Server) handleObserveV2(w http.ResponseWriter, r *http.Request) {
	// Admission control: when the micro-batch queue is saturated (too many
	// bulk streams already contending for the write lock), push back with
	// 503 + Retry-After BEFORE committing to a streamed response — a
	// rejected client can retry against another replica or back off,
	// where a silently stalled one just holds its connection open.
	if s.MaxInflightObserve > 0 {
		if n := s.inflightObserve.Add(1); int(n) > s.MaxInflightObserve {
			s.inflightObserve.Add(-1)
			s.rejectOverloaded(w, fmt.Sprintf("observe queue saturated (%d streams in flight)", s.MaxInflightObserve))
			return
		}
		defer s.inflightObserve.Add(-1)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	emit := func(st observeStatusJSON) {
		enc.Encode(st) //nolint:errcheck // response already streaming
	}

	var (
		batch    []core.Observation
		lines    []int // input line number of each batch entry
		applied  int
		invalid  int
		flushed  int
		batches  int
		lineNo   int
		overload bool
		flushErr error // last call-scoped ObserveBatch failure, echoed on the summary
	)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		rep, err := s.eng.ObserveBatch(r.Context(), batch)
		flushErr = err
		applied += rep.Applied
		invalid += rep.Rejected
		flushed += rep.Flushed
		batches++
		// Per-entry outcomes, in input order: rejected entries carry their
		// validation error, the rest of the applied prefix is ok, entries
		// after a cancellation point are reported as cancelled.
		rejected := make(map[int]error, len(rep.Errors))
		for _, oe := range rep.Errors {
			rejected[oe.Index] = oe.Err
		}
		seen := rep.Applied + rep.Rejected
		for i, ln := range lines {
			switch {
			case rejected[i] != nil:
				emit(observeStatusJSON{Line: ln, Status: "error", Error: toErrorJSON(rejected[i])})
			case i < seen || err == nil:
				emit(observeStatusJSON{Line: ln, Status: "ok"})
			default:
				emit(observeStatusJSON{Line: ln, Status: "error", Error: toErrorJSON(err)})
			}
		}
		batch, lines = batch[:0], lines[:0]
		rc.Flush() //nolint:errcheck // best-effort streaming
		return err == nil
	}

	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes))
	sc.Buffer(make([]byte, 0, 64*1024), maxNDJSONLine)
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var line observeLineJSON
		if err := json.Unmarshal(raw, &line); err != nil {
			invalid++
			emit(observeStatusJSON{Line: lineNo, Status: "error",
				Error: &errorJSON{Code: "bad_json", Message: err.Error()}})
			continue
		}
		batch = append(batch, core.Observation{
			UserID:    line.UserID,
			Item:      line.Item.model(),
			Timestamp: line.Timestamp,
		})
		lines = append(lines, lineNo)
		if len(batch) >= s.BatchSize {
			if !flush() {
				overload = true
				break
			}
		}
	}
	if !overload {
		if err := sc.Err(); err != nil {
			invalid++
			emit(observeStatusJSON{Line: lineNo + 1, Status: "error",
				Error: &errorJSON{Code: "bad_stream", Message: err.Error()}})
		}
		flush()
	}
	summary := observeSummaryJSON{Status: "done",
		Applied: applied, Invalid: invalid, Flushed: flushed, Batches: batches}
	if flushErr != nil {
		summary.Error = toErrorJSON(flushErr)
	}
	enc.Encode(summary) //nolint:errcheck // response already streaming
}

// ---- GET /v2/stats ----

type statsV2Response struct {
	Users    int `json:"users"`
	Blocks   int `json:"blocks"`
	Trees    int `json:"trees"`
	HashKeys int `json:"hash_keys"`
	// RefreshErrors counts failed index refreshes (summed across shards
	// in a sharded deployment): non-zero means some user's index entries
	// may lag their profile.
	RefreshErrors int64 `json:"refresh_errors"`

	Parallelism int `json:"parallelism"`
	BatchSize   int `json:"batch_size"`
	MaxBatch    int `json:"max_batch"`
	MaxK        int `json:"max_k"`

	// ShardCount/Shards describe a sharded deployment (absent for a
	// single engine). ReplicaSets and Supervisor additionally describe its
	// replica topology: per-slot replica health plus the auto-reseed
	// supervisor's counters (Supervisor is absent until StartSupervisor).
	ShardCount  int                   `json:"shard_count,omitempty"`
	Shards      []shardStatsJSON      `json:"shards,omitempty"`
	ReplicaSets []slotReplicasJSON    `json:"replica_sets,omitempty"`
	Supervisor  *supervisorJSON       `json:"supervisor,omitempty"`
	Resharding  *reshardingJSON       `json:"resharding,omitempty"`
	Sessions    sessionStatsJSON      `json:"sessions"`
	Requests    map[string]RouteStats `json:"requests"`

	// WAL reports the durable ingest log of a single-engine deployment
	// (a *wal.Durable backend); sharded deployments carry per-shard logs
	// inside Shards instead.
	WAL *wal.Stats `json:"wal,omitempty"`
}

// sessionStatsJSON reports the /v2/session serving counters and limits.
type sessionStatsJSON struct {
	Open           int64   `json:"open"`
	Total          int64   `json:"total"`
	Lines          int64   `json:"lines"`
	Results        int64   `json:"results"`
	Rejected       int64   `json:"rejected"`
	FlowViolations int64   `json:"flow_violations"`
	ThrottledMs    float64 `json:"throttled_ms"`
	CreditWindow   int     `json:"credit_window"`
	MaxSessions    int     `json:"max_sessions"`
	RatePerSec     float64 `json:"rate_per_sec"`
}

// slotReplicasJSON is the wire form of one shard slot's replica health.
type slotReplicasJSON struct {
	Slot     int           `json:"slot"`
	Replicas []replicaJSON `json:"replicas"`
}

// replicaJSON is one replica of a slot: its health state (healthy,
// excluded, reseeding), outstanding missed-write debt and read-latency
// EWMA.
type replicaJSON struct {
	Replica       int     `json:"replica"`
	State         string  `json:"state"`
	MissedWrite   bool    `json:"missed_write"`
	LatencyEWMAMs float64 `json:"latency_ewma_ms"`
}

// supervisorJSON reports the auto-reseed supervisor's counters.
type supervisorJSON struct {
	Running             bool    `json:"running"`
	IntervalMs          float64 `json:"interval_ms"`
	Cycles              uint64  `json:"cycles"`
	Reseeds             uint64  `json:"reseeds"`
	ReseedFailures      uint64  `json:"reseed_failures"`
	DeltaReseeds        uint64  `json:"delta_reseeds"`
	DeltaReseedFailures uint64  `json:"delta_reseed_failures"`
	SnapshotExports     uint64  `json:"snapshot_exports"`
	DeltaReplayMax      int     `json:"delta_replay_max"`
	LastError           string  `json:"last_error,omitempty"`
}

// reshardingJSON reports the online split/merge machinery: the in-flight
// migration when one is active, otherwise the last finished one (zero
// value if none ever ran). Present only for sharded backends.
type reshardingJSON struct {
	Active          bool   `json:"active"`
	Phase           string `json:"phase"`
	FromShards      int    `json:"from_shards"`
	ToShards        int    `json:"to_shards"`
	FromEpoch       uint64 `json:"from_epoch"`
	ToEpoch         uint64 `json:"to_epoch"`
	MigratingBlocks int    `json:"migrating_blocks"`
	Members         int    `json:"members"`
	Seeded          int    `json:"seeded"`
	RingDepth       int    `json:"ring_depth"`
	MirroredBatches uint64 `json:"mirrored_batches"`
	Error           string `json:"error,omitempty"`
	Completed       uint64 `json:"completed"`
}

func toReshardingJSON(st shard.ReshardStatus) *reshardingJSON {
	return &reshardingJSON{
		Active:          st.Active,
		Phase:           st.Phase,
		FromShards:      st.FromShards,
		ToShards:        st.ToShards,
		FromEpoch:       st.FromEpoch,
		ToEpoch:         st.ToEpoch,
		MigratingBlocks: st.MigratingBlocks,
		Members:         st.Members,
		Seeded:          st.Seeded,
		RingDepth:       st.RingDepth,
		MirroredBatches: st.MirroredBatches,
		Error:           st.Error,
		Completed:       st.Completed,
	}
}

// shardStatsJSON is the wire form of one shard's statistics.
type shardStatsJSON struct {
	Shard         int        `json:"shard"`
	Trained       bool       `json:"trained"`
	Users         int        `json:"users"`
	OwnedUsers    int        `json:"owned_users"`
	Leaves        int        `json:"leaves"`
	Blocks        int        `json:"blocks"`
	Trees         int        `json:"trees"`
	HashKeys      int        `json:"hash_keys"`
	RefreshErrors int64      `json:"refresh_errors"`
	WAL           *wal.Stats `json:"wal,omitempty"`
}

func (s *Server) handleStatsV2(w http.ResponseWriter, r *http.Request) {
	window := s.SessionCredit
	if window <= 0 {
		window = DefaultSessionCredit
	}
	resp := statsV2Response{
		BatchSize: s.BatchSize,
		MaxBatch:  s.MaxBatch,
		MaxK:      s.MaxK,
		Sessions: sessionStatsJSON{
			Open:           s.sessions.open.Load(),
			Total:          s.sessions.total.Load(),
			Lines:          s.sessions.lines.Load(),
			Results:        s.sessions.results.Load(),
			Rejected:       s.sessions.rejected.Load(),
			FlowViolations: s.sessions.violations.Load(),
			ThrottledMs:    float64(s.sessions.throttleNs.Load()) / 1e6,
			CreditWindow:   window,
			MaxSessions:    s.MaxSessions,
			RatePerSec:     s.SessionRate,
		},
		Requests: s.metrics.snapshot(),
	}
	if ss, ok := s.eng.(shardStatser); ok {
		// Sharded backend: ONE fan-out snapshot feeds both the per-shard
		// entries and the deployment-level figures (the routing structures
		// are replicated, so the first trained shard's numbers are the
		// deployment's) — no extra per-field round trips to remote shards,
		// and no hanging on a fully excluded fleet.
		shardStats := ss.ShardStats()
		for _, sh := range shardStats {
			resp.Shards = append(resp.Shards, shardStatsJSON{
				Shard:         sh.Shard,
				Trained:       sh.Trained,
				Users:         sh.Users,
				OwnedUsers:    sh.OwnedUsers,
				Leaves:        sh.Leaves,
				Blocks:        sh.Blocks,
				Trees:         sh.Trees,
				HashKeys:      sh.HashKeys,
				RefreshErrors: sh.RefreshErrors,
				WAL:           sh.WAL,
			})
			resp.RefreshErrors += sh.RefreshErrors
		}
		resp.ShardCount = len(resp.Shards)
		for _, sh := range shardStats {
			if sh.Trained {
				resp.Users, resp.Blocks, resp.Trees, resp.HashKeys = sh.Users, sh.Blocks, sh.Trees, sh.HashKeys
				resp.Parallelism = sh.Parallelism
				break
			}
		}
		if rst, ok := s.eng.(reshardStatser); ok {
			resp.Resharding = toReshardingJSON(rst.ReshardStatus())
		}
		if rs, ok := s.eng.(replicaStatser); ok {
			// Replica topology: group the flat health list by slot (the
			// list arrives slot-ordered) and attach the supervisor's
			// counters when a supervisor has been started.
			for _, st := range rs.ReplicaHealth() {
				if n := len(resp.ReplicaSets); n == 0 || resp.ReplicaSets[n-1].Slot != st.Slot {
					resp.ReplicaSets = append(resp.ReplicaSets, slotReplicasJSON{Slot: st.Slot})
				}
				last := &resp.ReplicaSets[len(resp.ReplicaSets)-1]
				last.Replicas = append(last.Replicas, replicaJSON{
					Replica:       st.Replica,
					State:         st.State,
					MissedWrite:   st.MissedWrite,
					LatencyEWMAMs: st.LatencyEWMAMs,
				})
			}
			if sup, ok := rs.SupervisorStats(); ok {
				resp.Supervisor = &supervisorJSON{
					Running:             sup.Running,
					IntervalMs:          float64(sup.Interval) / 1e6,
					Cycles:              sup.Cycles,
					Reseeds:             sup.Reseeds,
					ReseedFailures:      sup.ReseedFailures,
					DeltaReseeds:        sup.DeltaReseeds,
					DeltaReseedFailures: sup.DeltaReseedFailures,
					SnapshotExports:     sup.SnapshotExports,
					DeltaReplayMax:      sup.DeltaReplayMax,
					LastError:           sup.LastError,
				}
			}
		}
	} else {
		st := s.eng.IndexView()
		resp.Users, resp.Blocks, resp.Trees, resp.HashKeys = st.Users, st.Blocks, st.Trees, st.HashKeys
		resp.RefreshErrors = st.RefreshErrors
		resp.Parallelism = s.eng.Parallelism()
	}
	if wl, ok := s.eng.(walLogger); ok {
		st := wl.Log().Stats()
		resp.WAL = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- POST /v2/reshard (admin, flag-gated) ----

// reshardV2Request asks for an online in-process reshard to Shards
// engine shards.
type reshardV2Request struct {
	Shards int `json:"shards"`
}

// reshardV2Response acknowledges the accepted migration; progress is
// polled from the /v2/stats resharding block.
type reshardV2Response struct {
	Accepted bool `json:"accepted"`
	Shards   int  `json:"shards"`
}

// handleReshardV2 is the operator trigger of the online split/merge:
// enabled by -admin-reshard, sharded backends only. The migration runs
// asynchronously — the response acknowledges acceptance, and /v2/stats
// reports seeding/catch-up/flip progress and the terminal phase.
func (s *Server) handleReshardV2(w http.ResponseWriter, r *http.Request) {
	if !s.AdminReshard {
		httpError(w, http.StatusForbidden, "resharding is not enabled (start the server with -admin-reshard)")
		return
	}
	rs, ok := s.eng.(resharder)
	if !ok {
		httpError(w, http.StatusNotImplemented, "backend is a single engine; resharding needs a sharded deployment")
		return
	}
	var req reshardV2Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if req.Shards < 1 {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("shards must be >= 1, got %d", req.Shards))
		return
	}
	if st, ok := s.eng.(reshardStatser); ok && st.ReshardStatus().Active {
		httpError(w, http.StatusConflict, "a reshard is already in flight")
		return
	}
	// Asynchronous and detached: the migration outlives this request by
	// design, and the fleet must never flip half-seeded because an admin
	// client disconnected.
	go rs.Reshard(context.WithoutCancel(r.Context()), req.Shards) //nolint:errcheck // terminal state lands in the /v2/stats resharding block
	writeJSON(w, http.StatusAccepted, reshardV2Response{Accepted: true, Shards: req.Shards})
}
