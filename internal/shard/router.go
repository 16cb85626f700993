// router.go is the scatter-gather front of a sharded deployment: it owns
// the user→shard hash, broadcasts the write path (observations, item
// registration) so the replicated dictionaries never drift, scatters each
// query to every shard under one shared score bound, and gathers the
// per-shard top-k heaps into the final ranking. Its surface mirrors
// core.Engine so the HTTP server and the bench harness can serve either
// interchangeably.
//
// # Failover
//
// A shard whose call fails with ErrShardUnavailable (the transport-level
// sentinel every RPC shard wraps) is EXCLUDED: the Router stops routing to
// it and serves degraded — queries merge the remaining shards' exact
// top-k lists and wrap ErrShardUnavailable so callers know the answer may
// be missing the excluded shards' owned users, and write batches keep
// replicating to the healthy shards (the excluded shard must re-boot from
// a snapshot handoff before re-inclusion, because it has missed batches).
// Excluded shards that implement Pinger are re-probed — lazily on the
// query path (at most once per probe interval) or explicitly via Probe —
// and re-included once they report healthy AND trained.
//
// # The fleet
//
// All per-shard routing state — the shard handles, exclusion flags,
// missed-write debt, probe schedule and the versioned ownership table —
// lives in ONE immutable fleet value behind an atomic pointer. Every
// operation loads the pointer once at entry and works against that
// consistent view; an online reshard (resharder.go) builds a complete
// replacement fleet off to the side and retires the old one with a single
// pointer swap, so readers never observe a half-resized deployment.
package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/sigtree"
	"ssrec/internal/telemetry"
)

// DefaultProbeInterval is the BASE interval of the query path's lazy
// re-probe of excluded shards; each consecutive failure doubles a shard's
// own interval (with jitter) up to ProbeBackoffCap — see backoff.go.
const DefaultProbeInterval = 3 * time.Second

// probeTimeout bounds one background health probe sweep.
const probeTimeout = 2 * time.Second

// fleet is one epoch's complete per-shard routing state. A fleet is
// immutable in SHAPE once serving (the slices never grow or shrink; the
// atomic flags inside them are the mutable health state), which is what
// makes the resharding pointer swap safe: a goroutine still holding the
// old fleet keeps operating on retired-but-intact state.
type fleet struct {
	// members holds the shard handles and their exclusion, missed-write
	// debt, epoch baselines and probe schedule (members.go).
	members
	// epoch counts the reshards behind this fleet: 0 at boot, each
	// reshard installs epoch+1 with the replacement fleet. Ownership is
	// model.ShardOf(·, len(shards)) at every epoch.
	epoch uint64
}

func newFleet(shards []Shard, epoch uint64) *fleet {
	f := &fleet{epoch: epoch}
	f.init(shards)
	return f
}

// locals walks the fleet's members for in-process engines: grid[i] holds
// slot i's *Local members, one per replica. all reports whether every
// member is a *Local or a *ReplicaSet of *Locals; a remote or mixed
// deployment has members the walk cannot see into.
func (f *fleet) locals() (grid [][]*Local, all bool) {
	all = true
	grid = make([][]*Local, len(f.shards))
	for i, s := range f.shards {
		slot := []Shard{s}
		if rs, ok := s.(*ReplicaSet); ok {
			slot = rs.shards
		}
		for _, m := range slot {
			l, ok := m.(*Local)
			if !ok {
				all = false
				continue
			}
			grid[i] = append(grid[i], l)
		}
	}
	return grid, all
}

// Router fans the engine API out over the shards of one deployment.
type Router struct {
	fleet atomic.Pointer[fleet]
	// isTrained latches once the deployment reports trained, so the
	// per-request readiness check stops paying a full Stats snapshot
	// (training is one-way: engines never untrain).
	isTrained atomic.Bool

	// supervisor is the replica supervisor attached via StartSupervisor
	// (nil until then); stats surfaces read it.
	supervisor atomic.Pointer[Supervisor]

	// reshardMu is the write gate of an online reshard: every write path
	// (ObserveBatch, registerBroadcast, and recommendOne, whose legs
	// register the item) holds the read side for its whole
	// broadcast+mirror critical section, and the resharder holds the
	// write side only for the two instants that must be atomic against
	// writers — installing the mirror at the snapshot watermark and
	// flipping the fleet pointer. Pure reads never touch it.
	reshardMu sync.RWMutex
	// rsd is the active reshard's mirror state (nil when idle): writers
	// that observe it append their batch to its ring after the old-fleet
	// broadcast, so the replacement fleet can catch up.
	rsd atomic.Pointer[reshardState]
	// lastReshard retains the most recent reshard's status for stats;
	// reshardsDone counts completed flips over the router's lifetime.
	lastReshard  atomic.Pointer[ReshardStatus]
	reshardsDone atomic.Uint64
}

func newRouter(shards []Shard) *Router {
	r := &Router{}
	r.fleet.Store(newFleet(shards, 0))
	return r
}

// fl returns the current fleet (never nil after construction).
func (r *Router) fl() *fleet { return r.fleet.Load() }

// readyProbeTimeout bounds the readiness classification pings.
const readyProbeTimeout = 2 * time.Second

// ready reports deployment readiness for the batch query path, caching
// the first positive answer. ANY non-excluded shard reporting trained
// answers for the deployment (the trained flag is part of the replicated
// state); the checks fan out in parallel so an unreachable remote shard
// costs at most one timeout, not one per shard. When NO shard reports
// trained the error distinguishes a genuinely untrained deployment
// (ErrNotTrained — in-process engines awaiting Train) from an unreachable or
// blank-awaiting-handoff one (wrapped ErrShardUnavailable): probeable
// shards that fail their ping are excluded on the spot, engaging the
// lazy re-probe machinery even before the first successful query.
func (r *Router) ready(ctx context.Context) error {
	if r.isTrained.Load() {
		return nil
	}
	f := r.fl()
	// Kick the lazy probe here too: with every shard excluded this
	// function short-circuits the serving path (where recommendOne would
	// probe), and without a probe an all-down fleet could never rejoin.
	f.maybeProbe()
	type status struct{ trained, unavailable bool }
	sts := make([]status, len(f.shards))
	checked := 0
	var wg sync.WaitGroup
	for i := range f.shards {
		if f.isDown(i) {
			continue
		}
		checked++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sts[i].trained = f.shards[i].Stats().Trained
			if sts[i].trained {
				return
			}
			if p, ok := f.shards[i].(Pinger); ok {
				pctx, cancel := context.WithTimeout(detach(ctx), readyProbeTimeout)
				defer cancel()
				// A ReplicaSet distinguishes reachable-but-untrained
				// (ErrNotTrained — awaiting Train, not a transport fault)
				// from unreachable; only the latter excludes the slot.
				if _, err := p.Ping(pctx); err != nil && !errors.Is(err, core.ErrNotTrained) {
					sts[i].unavailable = true
				}
			}
		}(i)
	}
	wg.Wait()
	anyUnavailable := checked == 0 // everything already excluded
	for i := range sts {
		if sts[i].trained {
			r.isTrained.Store(true)
			return nil
		}
		if sts[i].unavailable {
			f.exclude(i)
			anyUnavailable = true
		}
	}
	if anyUnavailable {
		return fmt.Errorf("%w: no reachable trained shard", ErrShardUnavailable)
	}
	return core.ErrNotTrained
}

// Topology describes a deployment for Open: Slots user-block partitions,
// each served by Replicas identically-partitioned members. Member builds
// replica `replica` of slot `slot` in a `slots`-wide deployment; Engines
// and Booted are the in-process sources, and shardrpc.Dial plugs in
// remote clients.
type Topology struct {
	Slots    int
	Replicas int
	Member   func(slot, replica, slots int) (Shard, error)
}

// Open assembles a Router over a Topology, slot-major: the members of
// slot i are built for replica 0, 1, ... in order. Replicas > 1 groups
// each slot's members in a ReplicaSet; otherwise each slot is its one
// plain member. A width below 1 reads as 1.
func Open(t Topology) (*Router, error) {
	slots, reps := max(t.Slots, 1), max(t.Replicas, 1)
	shards := make([]Shard, slots)
	for i := range shards {
		replicas := make([]Shard, reps)
		for j := range replicas {
			m, err := t.Member(i, j, slots)
			if err != nil {
				return nil, fmt.Errorf("shard: slot %d replica %d: %w", i, j, err)
			}
			replicas[j] = m
		}
		shards[i] = replicas[0]
		if reps > 1 {
			rs, err := NewReplicaSet(i, replicas...)
			if err != nil {
				return nil, err
			}
			shards[i] = rs
		}
	}
	return NewRouter(shards...)
}

// Engines is the Topology member source of a fresh in-process deployment:
// every member is a new engine built from cfg, with ShardIndex and
// ShardCount set to its slot. Train bootstraps it.
func Engines(cfg core.Config) func(slot, replica, slots int) (Shard, error) {
	return func(slot, _, slots int) (Shard, error) {
		c := cfg
		c.ShardIndex, c.ShardCount = slot, slots
		return NewLocal(slot, core.New(c)), nil
	}
}

// Booted is the Topology member source that boots every member from ONE
// trained-engine snapshot (core.SaveTo bytes): each restores the same
// replicated state and rebuilds only its slot's leaf partition, so any
// replica answers a slot query bit-identically. One training or one
// -save run, N boots.
func Booted(snapshot []byte) func(slot, replica, slots int) (Shard, error) {
	return func(slot, _, slots int) (Shard, error) {
		e, err := core.LoadShardFrom(bytes.NewReader(snapshot), slot, slots)
		if err != nil {
			return nil, err
		}
		return NewLocal(slot, e), nil
	}
}

// NewRouter assembles a router over pre-built shards, passed in index
// order — the primitive under Open, and the entry point for hand-built
// mixed deployments.
func NewRouter(shards ...Shard) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	for i, s := range shards {
		if s.Index() != i {
			return nil, fmt.Errorf("shard: shard at position %d reports index %d", i, s.Index())
		}
	}
	return newRouter(shards), nil
}

// Shards reports the deployment width.
func (r *Router) Shards() int { return len(r.fl().shards) }

// Epoch reports how many reshards the current fleet is past boot.
func (r *Router) Epoch() uint64 { return r.fl().epoch }

// Replicas reports the replication factor of the widest slot (1 for a
// plain unreplicated deployment).
func (r *Router) Replicas() int {
	rep := 1
	for _, s := range r.fl().shards {
		if rs, ok := s.(*ReplicaSet); ok && rs.Replicas() > rep {
			rep = rs.Replicas()
		}
	}
	return rep
}

// ShardStats snapshots every shard, in index order. The snapshots fan
// out in parallel, and excluded shards report zero-valued stats without
// a round trip — a monitoring poll must not pay a network timeout per
// dead shard.
func (r *Router) ShardStats() []Stats {
	f := r.fl()
	out := make([]Stats, len(f.shards))
	var wg sync.WaitGroup
	for i, s := range f.shards {
		if f.isDown(i) {
			out[i] = Stats{Shard: s.Index()}
			continue
		}
		wg.Add(1)
		go func(i int, s Shard) {
			defer wg.Done()
			out[i] = s.Stats()
		}(i, s)
	}
	wg.Wait()
	return out
}

// Owner returns the shard index that materialises a user's leaves in the
// current fleet.
func (r *Router) Owner(userID string) int {
	return model.ShardOf(userID, len(r.fl().shards))
}

// Down lists the currently excluded shard indices, ascending.
func (r *Router) Down() []int { return r.fl().downList() }

// SetProbeInterval adjusts the BASE interval of the lazy re-probe (each
// shard backs off exponentially from this base while it keeps failing,
// capped at ProbeBackoffCap, and resets to it on the first success);
// d <= 0 restores the default. Setting the base rewinds every shard's
// backoff and makes it due immediately.
func (r *Router) SetProbeInterval(d time.Duration) { r.fl().setProbeInterval(d) }

// Probe synchronously re-checks every excluded shard and re-includes the
// ones that pass. A shard implementing Pinger must report healthy,
// identity-correct and trained — and, when replicated writes landed
// while it was out (missed-write debt), its boot epoch must have CHANGED since
// last observed, proving it was re-seeded from a snapshot rather than
// left running pre-exclusion state; a merely-reachable stale shard would
// silently serve rankings missing every batch it skipped. Shards without
// a probe surface (in-process) are re-included once trained. Probe
// returns the re-included indices.
func (r *Router) Probe(ctx context.Context) []int {
	f := r.fl()
	return f.probeDown(ctx, f.downList())
}

// HandoffSnapshot ships a trained-engine snapshot (core.SaveTo bytes) to
// every shard that implements SnapshotReceiver and re-includes it — the
// boot path of a remote deployment and the recovery path of an excluded
// shard (which has missed replicated batches and MUST reboot from a fresh
// snapshot before rejoining). A shard whose push fails is excluded, and a
// shard whose confirming ping fails keeps no epoch baseline, so only a
// later re-seed can prove it fresh. In-process shards are skipped; they
// boot through Open (Booted) or Train.
func (r *Router) HandoffSnapshot(ctx context.Context, snapshot []byte) error {
	f := r.fl()
	for i, s := range f.shards {
		sr, ok := s.(SnapshotReceiver)
		if !ok {
			continue
		}
		// The generation is captured BEFORE the push: a broadcast that
		// lands while the snapshot is in flight records debt the snapshot
		// cannot contain, and that debt keeps the shard excluded — it
		// rejoins on the next handoff (or probe after a re-seed).
		if err := f.reseed(ctx, i, f.claim(i), func() error { return sr.Handoff(ctx, snapshot) }); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Train bootstraps an in-process deployment: the first engine (replica 0
// of slot 0) trains once on the full stream, then every other engine
// boots from its snapshot (LoadShardFrom) — identical replicated state,
// its slot's leaf partition — so an n-slot × rep-replica deployment costs
// ONE training, not n×rep. The engines are found by walking the members;
// a deployment with any member that is not a *Local (or a ReplicaSet of
// them) is refused. Train is a bootstrap step: it swaps the engines under
// the members, so it must return before the deployment serves.
func (r *Router) Train(items []model.Item, interactions []model.Interaction, resolve func(string) (model.Item, bool)) error {
	grid, all := r.fl().locals()
	if !all {
		return fmt.Errorf("shard: Train requires an in-process deployment; remote deployments train out-of-band and boot via HandoffSnapshot")
	}
	first := grid[0][0].eng
	if err := first.Train(items, interactions, resolve); err != nil {
		return err
	}
	if len(grid) == 1 && len(grid[0]) == 1 {
		return nil
	}
	var buf bytes.Buffer
	if err := first.SaveTo(&buf); err != nil {
		return fmt.Errorf("shard: snapshot slot 0: %w", err)
	}
	for i, row := range grid {
		for j, l := range row {
			if i == 0 && j == 0 {
				continue
			}
			e, err := core.LoadShardFrom(bytes.NewReader(buf.Bytes()), i, len(grid))
			if err != nil {
				return fmt.Errorf("slot %d replica %d: boot from snapshot: %w", i, j, err)
			}
			l.eng = e
		}
	}
	return nil
}

// detach strips cancellation for the broadcast legs: a micro-batch (or a
// registration batch) is the atomic replication unit — if half the shards
// applied it and half refused on a cancelled context, the replicated
// dictionaries would drift apart permanently. Cancellation therefore
// applies BETWEEN batches (checked at entry), never inside one.
func detach(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return context.WithoutCancel(ctx)
}

// degradedErr wraps ErrShardUnavailable naming the excluded shards.
func degradedErr(excluded []int) error {
	sort.Ints(excluded)
	return fmt.Errorf("%w: shard(s) %v excluded", ErrShardUnavailable, excluded)
}

// ObserveBatch ingests one micro-batch of the interaction stream: the SAME
// batch is broadcast to every shard in parallel (each maintains the
// replicated dictionaries for all users and refreshes leaves only for the
// ones it owns). The merged report matches the single-engine call:
// Applied/Rejected/Errors are identical on every shard (validation is
// deterministic), and Flushed sums the per-shard owned refreshes —
// exactly the users a single engine would have refreshed, divided N ways.
//
// Degraded mode: excluded shards are skipped and a shard that fails with
// ErrShardUnavailable mid-broadcast is excluded; the call then returns the
// healthy shards' merged report together with a wrapped
// ErrShardUnavailable, because the batch was NOT replicated everywhere —
// the excluded shards must reboot from a snapshot handoff to rejoin.
func (r *Router) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return core.BatchReport{}, err
		}
	}
	if len(batch) == 0 {
		return core.BatchReport{}, nil
	}
	// The whole broadcast+mirror is one reshard critical section: the
	// resharder's snapshot watermark and fleet flip both wait for
	// in-flight writes, so every batch lands exactly once on the
	// replacement fleet — in the snapshot, in the mirror ring, or after
	// the flip.
	r.reshardMu.RLock()
	defer r.reshardMu.RUnlock()
	f := r.fl()
	f.maybeProbe() // write-only workloads must also drive shard recovery
	bctx := detach(ctx)
	bctx, obsSpan := telemetry.StartSpan(bctx, "router.observe")
	obsSpan.SetAttr("batch", strconv.Itoa(len(batch)))
	defer obsSpan.End()
	reps := make([]core.BatchReport, len(f.shards))
	legs := f.targets()
	anyOK, anyUnavail, refused := f.broadcast(ctx, legs, func(i int) (err error) {
		reps[i], err = f.shards[i].ObserveBatch(bctx, batch)
		return err
	})
	// Applied/Rejected/Errors are deterministic and identical on every
	// shard: take them from the first healthy report, and sum Flushed.
	var rep core.BatchReport
	base := false
	for i, l := range legs {
		if !l.called || l.err != nil {
			continue
		}
		if !base {
			rep = reps[i]
			rep.Flushed = 0
			base = true
		}
		rep.Flushed += reps[i].Flushed
	}
	// The batch mutated the deployment when a healthy report proves it
	// (Applied > 0 — validation is deterministic, so Applied == 0 proves a
	// no-op everywhere) or when only unavailable legs ran (they MAY have
	// applied server-side). A fleet where no shard ran applied nothing.
	f.settle(legs, (anyOK && rep.Applied > 0) || (!anyOK && anyUnavail))
	// Mirror the batch to an in-flight reshard AFTER the old fleet
	// applied it: the replacement fleet replays the ring in arrival
	// order, so a sequential writer's stream lands on it in exactly the
	// order the old fleet saw. A batch no shard can have applied (every
	// leg refused, or a preflight vetoed the fan-out) is not mirrored.
	if rsd := r.rsd.Load(); rsd != nil && (anyOK || anyUnavail) {
		rsd.mirrorObserve(batch)
	}
	// A clean refusal proves that shard did NOT apply the batch while its
	// siblings may have: the call fails loudly, and the debt above keeps
	// the shard from silently serving behind.
	if refused >= 0 {
		return rep, fmt.Errorf("shard %d: %w", refused, legs[refused].err)
	}
	var excluded []int
	for i, l := range legs {
		if l.unavailable() {
			excluded = append(excluded, i)
		}
	}
	if len(excluded) > 0 {
		return rep, degradedErr(excluded)
	}
	return rep, nil
}

// registerBroadcast runs the deterministic batch prologue on every shard
// in parallel — RecommendBatch's, whose items must register in batch order
// before its workers start, and RegisterItem's. Uncancellable for the same
// drift reason as ObserveBatch. Unavailable shards are excluded rather
// than failing the query — the degraded-mode error surfaces on the query
// leg that follows.
func (r *Router) registerBroadcast(ctx context.Context, items []model.Item) error {
	r.reshardMu.RLock()
	defer r.reshardMu.RUnlock()
	f := r.fl()
	bctx := detach(ctx)
	bctx, regSpan := telemetry.StartSpan(bctx, "router.register")
	defer regSpan.End()
	changed := make([]bool, len(f.shards))
	legs := f.targets()
	anyOK, anyUnavail, refused := f.broadcast(bctx, legs, func(i int) (err error) {
		changed[i], err = f.shards[i].RegisterItems(bctx, items)
		return err
	})
	r.settleRegister(f, legs, changed, items, anyOK, anyUnavail)
	if refused >= 0 {
		return fmt.Errorf("shard %d: %w", refused, legs[refused].err)
	}
	return nil
}

// settleRegister accounts one registration fan-out — a batch prologue or
// the registrations folded into a single-item ask. The dictionaries are
// replicated, so every healthy shard agrees on whether the items held
// anything new: a successful leg with changed == false PROVES the
// registration was a no-op everywhere (warm re-registration, the
// overwhelmingly common query path) and no debt accrues — otherwise lazy
// re-inclusion would be unreachable under ordinary read traffic. A batch
// that DID advance the state — or whose outcome is unknowable because
// only unavailable legs ran — leaves every skipped or failed shard owing
// a re-seed, and is mirrored to an in-flight reshard; a proven no-op is a
// no-op on the replacement fleet too (it boots from a snapshot that
// already contains those items). The caller holds reshardMu's read side.
func (r *Router) settleRegister(f *fleet, legs []leg, changed []bool, items []model.Item, anyOK, anyUnavail bool) {
	advanced := false
	for i, l := range legs {
		advanced = advanced || (l.called && l.err == nil && changed[i])
	}
	mutated := len(items) > 0 && ((anyOK && advanced) || (!anyOK && anyUnavail))
	f.settle(legs, mutated)
	if mutated {
		if rsd := r.rsd.Load(); rsd != nil {
			rsd.mirrorRegister(items)
		}
	}
}

// registration is the registration outcome a Recommend leg's error
// carries (see Shard.Recommend): nil when the registration took effect —
// the leg may still have failed its search — and the error itself when
// the registration is unknown (ErrShardUnavailable) or refused
// (ErrNotRegistered).
func registration(err error) error {
	if err != nil && (errors.Is(err, ErrShardUnavailable) || errors.Is(err, ErrNotRegistered)) {
		return err
	}
	return nil
}

// recommendOne scatters one item to every healthy shard under one shared
// bound and gathers the per-shard heaps into the global top-k. Stats are
// summed. Each leg registers the item before it searches, so the ask is
// also a registration fan-out, settled under the same proof rules as
// registerBroadcast and inside the same reshard critical section. With
// shards excluded the merged result is partial (their owned users are
// missing) and the call wraps ErrShardUnavailable alongside it; a shard
// that refused the registration fails the whole ask with no
// recommendations, as a refused batch prologue does.
//
// prologued marks an ask of RecommendBatch, whose prologue already
// registered and settled the item: its legs re-register warm, so nothing
// is settled again, and a replica set reads from one replica instead of
// writing the item to the whole slot a second time.
func (r *Router) recommendOne(ctx context.Context, v model.Item, o core.QueryOptions, prologued bool) (core.Result, error) {
	if !prologued {
		r.reshardMu.RLock()
		defer r.reshardMu.RUnlock()
	}
	f := r.fl()
	f.maybeProbe()
	ctx, scatterSpan := telemetry.StartSpan(ctx, "router.scatter")
	scatterSpan.SetAttr("shards", strconv.Itoa(len(f.shards)))
	var b *sigtree.Bound
	if len(f.shards) > 1 {
		b = sigtree.NewBound()
	}
	parts := make([]core.Result, len(f.shards))
	changed := make([]bool, len(f.shards))
	errs := make([]error, len(f.shards))
	legs := f.targets()
	anyOK, anyUnavail, refused := f.broadcast(ctx, legs, func(i int) error {
		lctx, leg := telemetry.StartSpan(ctx, "router.shard")
		leg.SetAttr("shard", strconv.Itoa(i))
		if rs, ok := f.shards[i].(*ReplicaSet); ok && prologued {
			parts[i], errs[i] = rs.read(lctx, v, o, b)
		} else {
			parts[i], changed[i], errs[i] = f.shards[i].Recommend(lctx, v, o, b)
		}
		leg.End()
		return registration(errs[i])
	})
	scatterSpan.End()
	if !prologued {
		r.settleRegister(f, legs, changed, []model.Item{v}, anyOK, anyUnavail)
	}
	if refused >= 0 {
		return core.Result{ItemID: v.ID}, fmt.Errorf("shard %d: %w", refused, legs[refused].err)
	}
	res := core.Result{ItemID: v.ID}
	lists := make([][]model.Recommendation, 0, len(parts))
	var excluded []int
	var firstErr error
	for i, l := range legs {
		if l.unavailable() {
			excluded = append(excluded, i)
			continue
		}
		lists = append(lists, parts[i].Recommendations)
		res.Stats.Add(parts[i].Stats)
		if firstErr == nil && errs[i] != nil {
			firstErr = errs[i]
		}
	}
	res.Recommendations = sigtree.MergeTopK(o.K, lists...)
	if firstErr == nil && len(excluded) > 0 {
		firstErr = degradedErr(excluded)
	}
	return res, firstErr
}

// RecommendCtx mirrors Engine.RecommendCtx over the deployment: one
// scatter-gather whose legs each register the item (deterministically)
// before they search. In degraded mode it returns the partial result AND
// a wrapped ErrShardUnavailable.
func (r *Router) RecommendCtx(ctx context.Context, v model.Item, opts ...core.Option) (core.Result, error) {
	o := core.ResolveOptions(opts...)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return core.Result{ItemID: v.ID}, err
		}
	}
	return r.recommendOne(ctx, v, o, false)
}

// RecommendBatch mirrors Engine.RecommendBatch over the deployment:
// results[i] answers items[i]; item-scoped failures (including degraded
// partial results) land in results[i].Err while the call-scoped error
// reports cancellation (core.BatchErr) or an untrained deployment. The
// registration prologue is broadcast ONCE in batch order — per-item
// registration under the worker pool would advance the shards' producer
// layers in nondeterministic order.
func (r *Router) RecommendBatch(ctx context.Context, items []model.Item, opts ...core.Option) ([]core.Result, error) {
	o := core.ResolveOptions(opts...)
	results := make([]core.Result, len(items))
	if len(items) == 0 {
		return results, nil
	}
	if err := r.ready(ctx); err != nil {
		for i := range results {
			results[i] = core.Result{ItemID: items[i].ID, Err: err}
		}
		return results, err
	}
	// Registration runs BEFORE the cancellation check, mirroring
	// Engine.RecommendBatch exactly: a cancelled batch still registers its
	// items there, so the sharded deployment must too or the producer
	// layers would drift apart from the single engine's.
	if err := r.registerBroadcast(ctx, items); err != nil {
		return results, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			for i := range results {
				results[i] = core.Result{ItemID: items[i].ID, Err: err}
			}
			return results, err
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(items) {
		workers = len(items)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				res, err := r.recommendOne(ctx, items[i], o, true)
				if err != nil {
					res.Err = err
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	return results, core.BatchErr(ctx, results)
}

// ---- v1-parity surface (the root ssrec.Recommender API) ----

// Recommend is the v1 query over the deployment. Unlike the single
// engine's v1 path it reports nothing on failure (nil); the v2 calls carry
// the errors. Degraded-mode partial results ARE returned (v1 has no error
// channel to qualify them).
func (r *Router) Recommend(v model.Item, k int) []model.Recommendation {
	res, err := r.RecommendCtx(context.Background(), v, core.WithK(k))
	if err != nil && !errors.Is(err, ErrShardUnavailable) {
		return nil
	}
	return res.Recommendations
}

// Observe is the v1 single-interaction ingest: a one-entry broadcast.
func (r *Router) Observe(ir model.Interaction, v model.Item) {
	_, _ = r.ObserveBatch(context.Background(), []core.Observation{
		{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp},
	})
}

// RegisterItem broadcasts one item registration.
func (r *Router) RegisterItem(v model.Item) {
	_ = r.registerBroadcast(context.Background(), []model.Item{v})
}

// Users counts tracked profiles (replicated — the first healthy shard's
// figure is the deployment's).
func (r *Router) Users() int { return r.fl().firstUpStats().Users }

// firstUpStats snapshots the first non-excluded shard. With every shard
// excluded it reports zero values WITHOUT a round trip — a monitoring
// poll against a fully partitioned fleet must not hang on a dead
// shard's timeout.
func (f *fleet) firstUpStats() Stats {
	for i := range f.shards {
		if !f.isDown(i) {
			return f.shards[i].Stats()
		}
	}
	return Stats{}
}

// IndexView reports the deployment-level index view: the routing
// structures are replicated, so any healthy shard's block/tree/hash
// figures are the deployment's, and Users covers every assigned user.
func (r *Router) IndexView() core.IndexStatsView {
	st := r.fl().firstUpStats()
	return core.IndexStatsView{
		Blocks:   st.Blocks,
		Trees:    st.Trees,
		Users:    st.Users,
		HashKeys: st.HashKeys,
	}
}
