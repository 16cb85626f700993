// wire.go defines the NDJSON/JSON wire format of the shard RPC protocol —
// the exact shapes both the RemoteShard client and the shardd server
// encode — plus the error-code mapping that carries the engine's sentinel
// errors across the wire without losing errors.Is identity.
//
// Every numeric score and bound crosses the wire as a JSON float64;
// encoding/json emits the shortest representation that round-trips the
// bit pattern exactly (strconv shortest-float), so remote results stay
// bit-identical to in-process ones. ±Inf is not representable in JSON —
// the protocol omits the bound field until it is finite (a fresh
// sigtree.Bound starts at -Inf, which means "nothing to prune yet" and
// never needs to be transmitted).
package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/sigtree"
	"ssrec/internal/telemetry"
	"ssrec/internal/wal"
)

// Endpoint paths of the shard RPC protocol (all rooted under /shard/v1).
// Probes use pathLivez (process up) or pathReadyz (booted AND trained,
// i.e. safe to serve).
const (
	pathLivez       = "/shard/v1/livez"
	pathReadyz      = "/shard/v1/readyz"
	pathStats       = "/shard/v1/stats"
	pathRegister    = "/shard/v1/register"
	pathObserve     = "/shard/v1/observe"
	pathQueryStream = "/shard/v1/query_stream"
	pathSnapshot    = "/shard/v1/snapshot"
	pathReplay      = "/shard/v1/replay"
	pathReshard     = "/shard/v1/reshard"
)

// Identity headers of the snapshot handoff: the pushing router asserts
// which shard it believes it is talking to, and the server refuses a
// mismatch instead of silently rebuilding the wrong leaf partition.
const (
	headerShardIndex = "X-Ssrec-Shard-Index"
	headerShardCount = "X-Ssrec-Shard-Count"
)

// itemWire is the wire form of model.Item.
type itemWire struct {
	ID          string   `json:"id"`
	Category    string   `json:"category"`
	Producer    string   `json:"producer,omitempty"`
	Entities    []string `json:"entities,omitempty"`
	Description string   `json:"description,omitempty"`
	Timestamp   int64    `json:"timestamp,omitempty"`
}

func toItemWire(v model.Item) itemWire {
	return itemWire{ID: v.ID, Category: v.Category, Producer: v.Producer,
		Entities: v.Entities, Description: v.Description, Timestamp: v.Timestamp}
}

func (w itemWire) model() model.Item {
	return model.Item{ID: w.ID, Category: w.Category, Producer: w.Producer,
		Entities: w.Entities, Description: w.Description, Timestamp: w.Timestamp}
}

// registerWire is the body of POST /shard/v1/register.
type registerWire struct {
	Items []itemWire `json:"items"`
}

// registerRespWire is the response of POST /shard/v1/register: whether
// the batch advanced the replicated dictionaries (any unseen item).
type registerRespWire struct {
	Changed bool `json:"changed"`
}

// obsWire is one observation of a replicated micro-batch.
type obsWire struct {
	UserID    string   `json:"user_id"`
	Item      itemWire `json:"item"`
	Timestamp int64    `json:"timestamp,omitempty"`
}

// observeWire is the body of POST /shard/v1/observe: one micro-batch, the
// atomic replication unit.
type observeWire struct {
	Observations []obsWire `json:"observations"`
}

// replayBatchWire is one missed write of a delta catch-up replay:
// exactly one of Register / Observe is set, tagged with the replica
// set's write sequence.
type replayBatchWire struct {
	Seq      uint64        `json:"seq"`
	Register *registerWire `json:"register,omitempty"`
	Observe  *observeWire  `json:"observe,omitempty"`
}

// replayWire is the body of POST /shard/v1/replay: the missed batches
// in sequence order.
type replayWire struct {
	Batches []replayBatchWire `json:"batches"`
}

// replayRespWire is the replay response: how many batches applied and
// the fresh boot epoch the shard minted, which the supervisor records
// as the proof-of-reseed the fail-closed probe rules require.
type replayRespWire struct {
	Applied   int    `json:"applied"`
	BootEpoch string `json:"boot_epoch,omitempty"`
}

// partitionWire is the wire form of model.Partition — the versioned
// user→shard ownership table an online reshard installs.
type partitionWire struct {
	Epoch  uint64 `json:"epoch"`
	Shards int    `json:"shards"`
	Blocks int    `json:"blocks"`
	Owners []int  `json:"owners"`
}

func toPartitionWire(p model.Partition) partitionWire {
	return partitionWire{Epoch: p.Epoch, Shards: p.Shards, Blocks: p.Blocks,
		Owners: append([]int(nil), p.Owners...)}
}

func (w partitionWire) model() model.Partition {
	return model.Partition{Epoch: w.Epoch, Shards: w.Shards, Blocks: w.Blocks,
		Owners: append([]int(nil), w.Owners...)}
}

// reshardWire is the body of POST /shard/v1/reshard: the control half of
// the online split/merge protocol. It stages the successor partition
// table on the shard — the NEXT snapshot handoff then boots via
// core.LoadPartitionFrom with this table instead of the legacy modular
// rule.
type reshardWire struct {
	Slot      int           `json:"slot"`
	Partition partitionWire `json:"partition"`
}

// reshardRespWire acknowledges a staged reshard.
type reshardRespWire struct {
	Staged bool `json:"staged"`
}

// decodeReshardRequest parses and validates a /shard/v1/reshard body:
// strict JSON (unknown fields refused — a malformed control message must
// never silently stage a wrong table), a structurally valid partition
// table, and a slot inside it. It is the fuzzed attack surface of the
// resharding control plane (FuzzDecodeReshardRequest).
func decodeReshardRequest(data []byte) (int, model.Partition, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w reshardWire
	if err := dec.Decode(&w); err != nil {
		return 0, model.Partition{}, fmt.Errorf("shardrpc: reshard request: %w", err)
	}
	if dec.More() {
		return 0, model.Partition{}, fmt.Errorf("shardrpc: reshard request: trailing data")
	}
	p := w.Partition.model()
	if err := p.Validate(); err != nil {
		return 0, model.Partition{}, fmt.Errorf("shardrpc: reshard request: %w", err)
	}
	if w.Slot < 0 || w.Slot >= p.Shards {
		return 0, model.Partition{}, fmt.Errorf("shardrpc: reshard request: slot %d out of range [0,%d)", w.Slot, p.Shards)
	}
	return w.Slot, p, nil
}

// obsErrWire is one rejected batch entry of a BatchReport.
type obsErrWire struct {
	Index int      `json:"index"`
	Error *errWire `json:"error"`
}

// reportWire is the response of POST /shard/v1/observe.
type reportWire struct {
	Applied  int          `json:"applied"`
	Rejected int          `json:"rejected"`
	Flushed  int          `json:"flushed"`
	Errors   []obsErrWire `json:"errors,omitempty"`
}

func toReportWire(rep core.BatchReport) reportWire {
	w := reportWire{Applied: rep.Applied, Rejected: rep.Rejected, Flushed: rep.Flushed}
	for _, oe := range rep.Errors {
		w.Errors = append(w.Errors, obsErrWire{Index: oe.Index, Error: encodeErr(oe.Err)})
	}
	return w
}

func (w reportWire) report() core.BatchReport {
	rep := core.BatchReport{Applied: w.Applied, Rejected: w.Rejected, Flushed: w.Flushed}
	for _, oe := range w.Errors {
		rep.Errors = append(rep.Errors, core.ObservationError{Index: oe.Index, Err: decodeErr(oe.Error)})
	}
	return rep
}

// optionsWire is the wire form of core.QueryOptions (already resolved by
// the router — defaults applied, no functional options cross the wire).
type optionsWire struct {
	K           int  `json:"k"`
	Parallelism int  `json:"parallelism,omitempty"`
	NoExpansion bool `json:"no_expansion,omitempty"`
}

func toOptionsWire(o core.QueryOptions) optionsWire {
	return optionsWire{K: o.K, Parallelism: o.Parallelism, NoExpansion: o.NoExpansion}
}

func (w optionsWire) options() core.QueryOptions {
	return core.QueryOptions{K: w.K, Parallelism: w.Parallelism, NoExpansion: w.NoExpansion}
}

// qsAsk starts one query on a multiplexed query stream (POST
// /shard/v1/query_stream), tagged with the stream-scoped query id carried
// by the enclosing qsLine.
type qsAsk struct {
	Item    itemWire    `json:"item"`
	Options optionsWire `json:"options"`
	// Bound is the shared bound's value at dispatch time, omitted while
	// -Inf.
	Bound *float64 `json:"bound,omitempty"`
	// Trace carries the caller's trace context for this query (the
	// stream is shared, so propagation is per-ask, not per-request).
	Trace string `json:"trace,omitempty"`
}

// qsLine is one NDJSON line of the multiplexed query-stream exchange, in
// either direction. ID scopes the line to one in-flight query; exactly one
// payload field is set:
//
//   - Ask (client→shard): start query ID;
//   - B: a monotone raise of query ID's shared lower bound (drift-tolerant
//     — the receiver folds it with Bound.Raise, so delayed, duplicated or
//     reordered deliveries only cost pruning, never correctness);
//   - Cancel (client→shard): abandon query ID (the shard cancels its
//     search; the client has already returned);
//   - Result/Err (shard→client): the terminal line of query ID.
type qsLine struct {
	ID     uint64      `json:"id"`
	Ask    *qsAsk      `json:"ask,omitempty"`
	B      *float64    `json:"b,omitempty"`
	Cancel bool        `json:"cancel,omitempty"`
	Result *resultWire `json:"result,omitempty"`
	Err    *errWire    `json:"error,omitempty"`
	// Spans returns the shard-side spans of a traced query on its
	// terminal line; absent when the ask was untraced.
	Spans []telemetry.SpanData `json:"spans,omitempty"`
}

// recWire is one ranked entry.
type recWire struct {
	UserID string  `json:"user_id"`
	Score  float64 `json:"score"`
}

// resultWire is the wire form of core.Result (minus Err, carried beside).
type resultWire struct {
	ItemID          string    `json:"item_id"`
	Recommendations []recWire `json:"recs,omitempty"`
	Stats           statsLine `json:"stats"`
}

// statsLine is the wire form of sigtree.SearchStats.
type statsLine struct {
	NodesVisited   int `json:"nodes,omitempty"`
	EntriesScored  int `json:"scored,omitempty"`
	EntriesSkipped int `json:"skipped,omitempty"`
	Partitions     int `json:"partitions,omitempty"`
}

func toResultWire(res core.Result) *resultWire {
	w := &resultWire{ItemID: res.ItemID, Stats: statsLine{
		NodesVisited:   res.Stats.NodesVisited,
		EntriesScored:  res.Stats.EntriesScored,
		EntriesSkipped: res.Stats.EntriesSkipped,
		Partitions:     res.Stats.Partitions,
	}}
	for _, rec := range res.Recommendations {
		w.Recommendations = append(w.Recommendations, recWire{UserID: rec.UserID, Score: rec.Score})
	}
	return w
}

func (w *resultWire) result() core.Result {
	res := core.Result{ItemID: w.ItemID, Stats: sigtree.SearchStats{
		NodesVisited:   w.Stats.NodesVisited,
		EntriesScored:  w.Stats.EntriesScored,
		EntriesSkipped: w.Stats.EntriesSkipped,
		Partitions:     w.Stats.Partitions,
	}}
	for _, rec := range w.Recommendations {
		res.Recommendations = append(res.Recommendations, model.Recommendation{UserID: rec.UserID, Score: rec.Score})
	}
	return res
}

// healthWire is the response of GET /shard/v1/health. BootEpoch is an
// opaque token minted at every engine boot (startup -model load or
// snapshot handoff): the Router compares epochs across probes to tell a
// RE-SEEDED shard (safe to re-include) from one that kept running stale
// state while it was excluded and missed replicated writes (not safe).
type healthWire struct {
	Shard     int    `json:"shard"`
	Of        int    `json:"of"`
	Trained   bool   `json:"trained"`
	BootEpoch string `json:"boot_epoch,omitempty"`
}

// statsWire is the wire form of shard.Stats.
type statsWire struct {
	Shard       int  `json:"shard"`
	Trained     bool `json:"trained"`
	Users       int  `json:"users"`
	OwnedUsers  int  `json:"owned_users"`
	Leaves      int  `json:"leaves"`
	Blocks      int  `json:"blocks"`
	Trees       int  `json:"trees"`
	HashKeys    int  `json:"hash_keys"`
	Parallelism int  `json:"parallelism"`
	// RefreshErrors counts failed index refreshes on the shard's engine.
	RefreshErrors int64 `json:"refresh_errors,omitempty"`
	// WAL is the shard's durable ingest log in the wire form wal.Stats
	// defines, absent when the shard runs without one.
	WAL *wal.Stats `json:"wal,omitempty"`
}

func toStatsWire(st shard.Stats) statsWire {
	return statsWire{Shard: st.Shard, Trained: st.Trained, Users: st.Users,
		OwnedUsers: st.OwnedUsers, Leaves: st.Leaves, Blocks: st.Blocks,
		Trees: st.Trees, HashKeys: st.HashKeys, Parallelism: st.Parallelism,
		RefreshErrors: st.RefreshErrors, WAL: st.WAL}
}

func (w statsWire) stats() shard.Stats {
	return shard.Stats{Shard: w.Shard, Trained: w.Trained, Users: w.Users,
		OwnedUsers: w.OwnedUsers, Leaves: w.Leaves, Blocks: w.Blocks,
		Trees: w.Trees, HashKeys: w.HashKeys, Parallelism: w.Parallelism,
		RefreshErrors: w.RefreshErrors, WAL: w.WAL}
}

// ---- error transport ----

// errWire carries one error across the wire: a stable code preserving the
// sentinel identity plus the full message.
type errWire struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Stable wire codes for the sentinel errors both sides know.
const (
	codeNotTrained  = "not_trained"
	codeUnknownCat  = "unknown_category"
	codeInvalidObs  = "invalid_observation"
	codeCancelled   = "cancelled"
	codeDeadline    = "deadline_exceeded"
	codeUnavailable = "unavailable"
	codeInternal    = "internal"
)

func encodeErr(err error) *errWire {
	if err == nil {
		return nil
	}
	w := &errWire{Code: codeInternal, Message: err.Error()}
	switch {
	case errors.Is(err, core.ErrNotTrained):
		w.Code = codeNotTrained
	case errors.Is(err, core.ErrUnknownCategory):
		w.Code = codeUnknownCat
	case errors.Is(err, core.ErrInvalidObservation):
		w.Code = codeInvalidObs
	case errors.Is(err, context.Canceled):
		w.Code = codeCancelled
	case errors.Is(err, context.DeadlineExceeded):
		w.Code = codeDeadline
	case errors.Is(err, shard.ErrShardUnavailable):
		w.Code = codeUnavailable
	}
	return w
}

// remoteError restores a decoded error: Error() reproduces the original
// message verbatim, Unwrap() restores the sentinel so errors.Is keeps
// working across the process boundary.
type remoteError struct {
	msg  string
	base error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.base }

func decodeErr(w *errWire) error {
	if w == nil {
		return nil
	}
	var base error
	switch w.Code {
	case codeNotTrained:
		base = core.ErrNotTrained
	case codeUnknownCat:
		base = core.ErrUnknownCategory
	case codeInvalidObs:
		base = core.ErrInvalidObservation
	case codeCancelled:
		base = context.Canceled
	case codeDeadline:
		base = context.DeadlineExceeded
	case codeUnavailable:
		base = shard.ErrShardUnavailable
	default:
		return errors.New(w.Message)
	}
	if w.Message == base.Error() {
		return base
	}
	return &remoteError{msg: w.Message, base: base}
}

// errorBody is the JSON body of a non-2xx status.
type errorBody struct {
	Error string `json:"error"`
}

// traceRespWire is the GET /shard/v1/trace/{id} body: the spans this
// shard retained for one distributed trace.
type traceRespWire struct {
	TraceID string               `json:"trace_id"`
	Spans   []telemetry.SpanData `json:"spans"`
}

// unavailable wraps a transport-level failure of shard idx in the typed
// sentinel the Router's failover keys on.
func unavailable(idx int, op string, err error) error {
	return fmt.Errorf("shardrpc: shard %d %s: %w: %w", idx, op, shard.ErrShardUnavailable, err)
}
