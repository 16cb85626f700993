// wire.go defines the JSON shapes of the shard RPC protocol — the health,
// stats, write-response and error bodies a shardd answers with (requests
// are binary frames, frames.go) — plus the error-code mapping that
// carries the engine's sentinel errors across the wire without losing
// errors.Is identity.
package shardrpc

import (
	"context"
	"errors"
	"fmt"

	"ssrec/internal/core"
	"ssrec/internal/shard"
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
)

// Identity headers of the snapshot handoff: the pushing router asserts
// which shard it believes it is talking to, and the server refuses a
// mismatch instead of silently rebuilding the wrong leaf partition.
const (
	headerShardIndex = "X-Ssrec-Shard-Index"
	headerShardCount = "X-Ssrec-Shard-Count"
)

// headerAskRegisters is the capability header of a query_stream response:
// "1" promises that every ask registers its item through the shard's write
// surface (logged when the shard has a WAL) and that every terminal frame
// carries the registration's changed flag. A client refuses a stream
// without it rather than fall back, since an older shardd would register
// asks unlogged and report nothing the router's debt accounting needs.
const headerAskRegisters = "X-Ssrec-Ask-Registers"

// registerRespWire is the response of POST /shard/v1/register: whether
// the batch advanced the replicated dictionaries (any unseen item).
type registerRespWire struct {
	Changed bool `json:"changed"`
}

// replayRespWire is the replay response: how many batches applied and
// the fresh boot epoch the shard minted, which the supervisor records
// as the proof-of-reseed the fail-closed probe rules require.
type replayRespWire struct {
	Applied   int    `json:"applied"`
	BootEpoch string `json:"boot_epoch,omitempty"`
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

// healthWire is the body of GET /shard/v1/livez and /readyz. BootEpoch is
// an opaque token minted at every engine boot (startup -model load or
// snapshot handoff): the Router compares epochs across probes to tell a
// RE-SEEDED shard (safe to re-include) from one that kept running stale
// state while it was excluded and missed replicated writes (not safe).
// Frames is the frame codec version the shardd reads (framesVersion);
// an older shardd omits it, and a router refuses to write to it.
type healthWire struct {
	Shard     int    `json:"shard"`
	Of        int    `json:"of"`
	Trained   bool   `json:"trained"`
	BootEpoch string `json:"boot_epoch,omitempty"`
	Frames    int    `json:"frames,omitempty"`
}

// statsWire is the wire form of shard.Stats.
type statsWire struct {
	Shard      int  `json:"shard"`
	Trained    bool `json:"trained"`
	Users      int  `json:"users"`
	OwnedUsers int  `json:"owned_users"`
	Leaves     int  `json:"leaves"`
	Blocks     int  `json:"blocks"`
	Trees      int  `json:"trees"`
	HashKeys   int  `json:"hash_keys"`
	// RefreshErrors counts failed index refreshes on the shard's engine.
	RefreshErrors int64 `json:"refresh_errors,omitempty"`
	// WAL is the shard's durable ingest log in the wire form wal.Stats
	// defines, absent when the shard runs without one.
	WAL *wal.Stats `json:"wal,omitempty"`
}

func toStatsWire(st shard.Stats) statsWire {
	return statsWire{Shard: st.Shard, Trained: st.Trained, Users: st.Users,
		OwnedUsers: st.OwnedUsers, Leaves: st.Leaves, Blocks: st.Blocks,
		Trees: st.Trees, HashKeys: st.HashKeys,
		RefreshErrors: st.RefreshErrors, WAL: st.WAL}
}

func (w statsWire) stats() shard.Stats {
	return shard.Stats{Shard: w.Shard, Trained: w.Trained, Users: w.Users,
		OwnedUsers: w.OwnedUsers, Leaves: w.Leaves, Blocks: w.Blocks,
		Trees: w.Trees, HashKeys: w.HashKeys,
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
