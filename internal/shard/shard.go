// Package shard scales the ssRec engine horizontally: user blocks are
// partitioned across N core.Engine shards behind a scatter-gather Router
// that is observably equivalent to one big engine — same IDs, same scores,
// same order, proven by the stream-replay conformance suite in this
// package.
//
// # What is sharded, what is replicated
//
// Exact equivalence pins down the split. Candidate routing (the block
// clustering, the per-tree entity/producer universes and the chained hash
// table) and the per-user prediction state (profiles, BiHMM models) must
// agree on every shard, or shards would route and score candidates
// differently than a single engine; they are cheap — O(1) map/window work
// per event — and are maintained identically everywhere by broadcasting
// the observation stream. The expensive state is divided: each shard
// materialises signature-tree leaves only for its owned users, so both the
// branch-and-bound search work (the paper's Fig 10 axis) and the dominant
// maintenance cost (the BiHMM forward passes behind every leaf refresh —
// the ROADMAP's "batched ingestion tail") split N ways.
//
// # The cross-shard protocol
//
// A query fans out to every shard with ONE shared sigtree.Bound: as soon
// as any in-process shard's local top-k fills, its k-th exact score
// raises the bound and prunes every other in-process shard's traversal.
// A remote shard ignores the bound and prunes against its own top-k only,
// the case in which no raise is shared. The per-shard top-k heaps are
// folded with sigtree.MergeTopK. Each shard's k-th best exact score
// lower-bounds the global k-th best, pruning is strict, ties are
// expanded — so results stay bit-identical at every shard count, with or
// without sharing.
//
// # The RPC seam
//
// Shard is a narrow interface (RegisterItems / ObserveBatch / Recommend /
// Stats) with wire-encodable argument types; Local adapts an in-process
// engine, and a network-backed implementation can slot in without touching
// the Router. Recommend registers the asked item before it searches, as
// core.Engine.RecommendCtx does, so a single-item ask costs one call per
// shard; RegisterItems is the batch prologue of RecommendBatch. The Bound
// is an in-process optimisation: a network-backed shard searches against
// its own fresh bound and loses only pruning, never correctness.
package shard

import (
	"bytes"
	"context"
	"errors"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/sigtree"
	"ssrec/internal/wal"
)

// ErrShardUnavailable marks a shard the deployment could not reach: a
// network-backed shard whose transport failed, or one the Router has
// excluded after such a failure. In degraded mode the Router keeps
// serving — queries return the merged results of the remaining shards —
// and wraps this sentinel so callers know the answer may be missing the
// excluded shards' owned users. Match with errors.Is.
var ErrShardUnavailable = errors.New("shard: shard unavailable")

// ErrNotRegistered marks an ask a shard refused before registering its
// item — a version-skewed or misconfigured shard. Nothing was searched
// and the registration did not take effect, so the Router fails the ask
// with it and, when the item was new to the shard's siblings, holds the
// shard in missed-write debt. Match with errors.Is.
var ErrNotRegistered = errors.New("shard: ask refused before registration")

// Stats snapshots one shard for /v2/stats and operational monitoring.
type Stats struct {
	// Shard is the shard's position in the deployment.
	Shard int
	// Trained reports whether the shard's engine has been bootstrapped.
	Trained bool
	// Users counts profiles tracked (the replicated dictionaries cover
	// every user, so this matches the single-engine figure).
	Users int
	// OwnedUsers counts users whose index leaves this shard materialises.
	OwnedUsers int
	// Leaves counts signature-tree leaf entries held by this shard.
	Leaves int
	// Blocks / Trees / HashKeys describe the (replicated) routing
	// structures.
	Blocks   int
	Trees    int
	HashKeys int
	// RefreshErrors counts failed index refreshes on this shard's engine
	// (core.Engine.RefreshErrors) — non-zero means some owned user's
	// leaves may lag their profile.
	RefreshErrors int64
	// WAL describes the shard's durable ingest log; nil when the shard
	// runs without one.
	WAL *wal.Stats
}

// Shard is one engine shard as the Router sees it. Local is the in-process
// implementation; the method set is deliberately small and wire-encodable
// (core.QueryOptions, not functional options) so an RPC-backed shard can
// implement it later without changing the Router.
type Shard interface {
	// Index reports the shard's position in the deployment (0-based).
	Index() int

	// RegisterItems registers a batch of items in batch order under one
	// lock — the deterministic prologue the Router broadcasts before a
	// query batch so every shard's producer layer advances identically.
	// changed reports whether any previously-unseen item was registered
	// (the replicated dictionaries advanced); a warm batch reports false,
	// which lets the Router tell a real missed write from a no-op when a
	// shard skips the broadcast.
	RegisterItems(ctx context.Context, items []model.Item) (changed bool, err error)

	// ObserveBatch ingests one micro-batch of the interaction stream. The
	// Router broadcasts the SAME batch to every shard: each maintains the
	// replicated dictionaries for all users and refreshes index leaves
	// only for the users it owns.
	ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error)

	// Recommend registers v exactly as RegisterItems([]model.Item{v})
	// would, whatever ctx says, then answers it from this shard's owned
	// users under ctx. Local prunes against — and raises — b, the
	// deployment-wide bound shared by all shards answering the same item;
	// a remote shard ignores b and searches against its own. changed reports
	// whether the registration advanced the replicated dictionaries. The
	// error tells the Router what became of the registration: one wrapping
	// ErrShardUnavailable leaves it unknown, one wrapping ErrNotRegistered
	// means it did not happen, and any other (a cancelled search, an
	// unknown category) came after it took effect.
	Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (res core.Result, changed bool, err error)

	// Stats snapshots the shard.
	Stats() Stats
}

// Pinger is the optional health-probe extension of a Shard. A
// network-backed shard implements it so the Router can verify liveness
// before re-including an excluded shard; in-process shards do not (they
// cannot fail independently of the process).
type Pinger interface {
	// Ping reports nil when the shard is reachable AND trained (ready to
	// serve); any error keeps the shard excluded. The returned bootEpoch
	// is an opaque token that changes whenever the shard (re)boots from a
	// snapshot — the Router compares it across probes to tell a re-seeded
	// shard from one still serving the state it had before it was
	// excluded (and therefore missing every batch replicated since).
	// Implementations without epoch tracking return "".
	Ping(ctx context.Context) (bootEpoch string, err error)
}

// Preflighter is the optional pre-write check of a Shard. A fan-out asks
// every targeted member that implements it before it calls any of them,
// so a member that cannot take the write at all — a remote shard that
// does not speak the router's wire format — refuses it before any sibling
// has applied it. Preflight returns nil when the member can take a
// write, an error wrapping ErrShardUnavailable when it cannot be reached
// (its leg then fails as the write itself would), and any other error to
// refuse the fan-out. A check that ctx ends refuses, wrapping ctx's error:
// nothing has been written anywhere yet.
type Preflighter interface {
	Preflight(ctx context.Context) error
}

// SnapshotReceiver is the optional snapshot-handoff extension of a Shard:
// the receiving end of the boot/recovery protocol. Handoff ships a full
// trained-engine snapshot (core.SaveTo bytes); the shard reboots from it
// via core.LoadShardFrom, materialising only its owned leaf partition.
// Remote shards implement it; in-process shards boot directly.
type SnapshotReceiver interface {
	Handoff(ctx context.Context, snapshot []byte) error
}

// SnapshotProvider is the optional snapshot-export extension of a Shard:
// the SOURCE end of the recovery protocol. Snapshot returns the shard's
// full engine state as core.SaveTo bytes. Because a shard snapshot
// carries the complete replicated state (the index partition is rebuilt
// on load, never serialised), ANY healthy shard's snapshot can re-seed
// ANY replica of ANY slot — the supervisor exploits this to reseed a
// blank replica from whichever healthy sibling answers first.
type SnapshotProvider interface {
	Snapshot(ctx context.Context) ([]byte, error)
}

// ReplayBatch is one replicated write a stale replica missed: either an
// item-registration batch (Items set) or an observation micro-batch (Obs
// set), tagged with the replica set's write sequence. Batches replay in
// sequence order, reproducing exactly the broadcast the replica skipped.
type ReplayBatch struct {
	Seq   uint64
	Items []model.Item
	Obs   []core.Observation
}

// Replayer is the optional delta catch-up extension of a Shard: the
// cheap alternative to a full snapshot Handoff when a stale replica's
// missed-write debt is small. Replay applies the missed batches in
// order; implementations that track a boot epoch mint a fresh one on
// success, so the fail-closed probe rules see the same proof-of-reseed
// signal a snapshot handoff produces.
type Replayer interface {
	Replay(ctx context.Context, batches []ReplayBatch) error
}

// Local is the in-process Shard: a thin adapter over one core.Engine whose
// Config carries the matching ShardIndex/ShardCount.
type Local struct {
	idx int
	eng *core.Engine
}

// NewLocal wraps an engine as shard idx of its deployment.
func NewLocal(idx int, eng *core.Engine) *Local {
	return &Local{idx: idx, eng: eng}
}

// Engine exposes the wrapped engine (tests, local administration).
func (l *Local) Engine() *core.Engine { return l.eng }

// Index implements Shard.
func (l *Local) Index() int { return l.idx }

// RegisterItems implements Shard.
func (l *Local) RegisterItems(ctx context.Context, items []model.Item) (bool, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return false, err
		}
	}
	return l.eng.RegisterItemBatch(items), nil
}

// ObserveBatch implements Shard.
func (l *Local) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	return l.eng.ObserveBatch(ctx, batch)
}

// Recommend implements Shard: the registration never fails in process.
// It is explicit, although RecommendBound's query prologue would register
// v too, because it must run even on a cancelled ctx (RecommendBound
// returns before its prologue then) and it is what reports changed; the
// prologue's own check is then a read-locked no-op.
func (l *Local) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, bool, error) {
	changed := l.eng.RegisterItemBatch([]model.Item{v})
	res, err := l.eng.RecommendBound(ctx, v, o, b)
	return res, changed, err
}

// Replay implements Replayer: missed batches apply directly to the
// wrapped engine in sequence order.
func (l *Local) Replay(ctx context.Context, batches []ReplayBatch) error {
	for _, b := range batches {
		if len(b.Items) > 0 {
			if _, err := l.RegisterItems(ctx, b.Items); err != nil {
				return err
			}
		}
		if len(b.Obs) > 0 {
			if _, err := l.eng.ObserveBatch(ctx, b.Obs); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot implements SnapshotProvider: the wrapped engine's full state as
// core.SaveTo bytes.
func (l *Local) Snapshot(ctx context.Context) ([]byte, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := l.eng.SaveTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Stats implements Shard.
func (l *Local) Stats() Stats {
	s := Stats{
		Shard:   l.idx,
		Trained: l.eng.Trained(),
		Users:   l.eng.Users(),
	}
	s.RefreshErrors = l.eng.RefreshErrors()
	if ist, ok := l.eng.IndexStats(); ok {
		s.OwnedUsers = ist.OwnedUsers
		s.Leaves = ist.TotalLeafCount
		s.Blocks = ist.Blocks
		s.Trees = ist.Trees
		s.HashKeys = ist.HashKeys
	}
	return s
}
