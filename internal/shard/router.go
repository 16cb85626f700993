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
	shards []Shard
	// locals holds the wrapped engines when the deployment is in-process
	// (New / FromSnapshot) — Train and SetParallelism need them; a mixed
	// or RPC deployment leaves the slice nil and bootstraps out-of-band.
	locals []*core.Engine
	// replLocals holds the engine grid of a replicated in-process
	// deployment (NewReplicated / FromSnapshotReplicated): replLocals[i][j]
	// is replica j of slot i. Remote replicated deployments leave it nil.
	replLocals [][]*core.Engine
	// partition is this fleet's versioned ownership table; epoch 0 agrees
	// exactly with the legacy model.ShardOf rule, each reshard installs
	// the successor epoch with the replacement fleet.
	partition model.Partition

	// down[i] marks shard i excluded after an ErrShardUnavailable failure;
	// probes paces the lazy re-probe per shard (exponential backoff with
	// jitter — see backoff.go).
	down   []atomic.Bool
	probes *probeSchedule
	// missedWrite[i] records that a replicated write landed on the
	// deployment while shard i was excluded: its state has diverged, and
	// a probe must NOT re-include it unless its boot epoch proves it was
	// re-seeded since (see Probe). debtGen[i] counts recordings — a
	// clearer (Probe, HandoffSnapshot) captures the generation before its
	// decision and only wipes debt that decision actually covers, so a
	// batch landing concurrently keeps the shard excluded.
	missedWrite []atomic.Bool
	debtGen     []atomic.Uint64
	// epochMu guards lastEpoch, the most recent boot-epoch token observed
	// per shard (from probes and post-handoff pings).
	epochMu   sync.Mutex
	lastEpoch []string
}

func newFleet(shards []Shard, locals []*core.Engine, p model.Partition) *fleet {
	return &fleet{
		shards:      shards,
		locals:      locals,
		partition:   p,
		down:        make([]atomic.Bool, len(shards)),
		probes:      newProbeSchedule(len(shards), DefaultProbeInterval),
		missedWrite: make([]atomic.Bool, len(shards)),
		debtGen:     make([]atomic.Uint64, len(shards)),
		lastEpoch:   make([]string, len(shards)),
	}
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
	// (ObserveBatch, registerBroadcast) holds the read side for its whole
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

func newRouter(shards []Shard, locals []*core.Engine) *Router {
	r := &Router{}
	r.fleet.Store(newFleet(shards, locals, model.LegacyPartition(len(shards))))
	return r
}

// fl returns the current fleet (never nil after construction).
func (r *Router) fl() *fleet { return r.fleet.Load() }

// recordDebt marks shard i as having missed a replicated write: it must
// re-seed from a snapshot before rejoining. Down is (re-)asserted with
// the debt so a concurrent Probe decision cannot leave the shard
// serving one batch behind.
func (f *fleet) recordDebt(i int) {
	f.missedWrite[i].Store(true)
	f.debtGen[i].Add(1)
	f.down[i].Store(true)
}

// clearDebtIfUnchanged wipes shard i's missed-write debt only when no
// new debt was recorded since the caller captured gen: debt from a batch
// that landed DURING a handoff push or probe decision postdates the
// snapshot that decision was based on and must survive it.
func (f *fleet) clearDebtIfUnchanged(i int, gen uint64) {
	if f.debtGen[i].Load() == gen {
		f.missedWrite[i].Store(false)
	}
}

// recordEpoch stores the latest observed boot epoch for a shard.
func (f *fleet) recordEpoch(i int, epoch string) {
	if epoch == "" {
		return
	}
	f.epochMu.Lock()
	f.lastEpoch[i] = epoch
	f.epochMu.Unlock()
}

func (f *fleet) knownEpoch(i int) string {
	f.epochMu.Lock()
	defer f.epochMu.Unlock()
	return f.lastEpoch[i]
}

// markDown excludes a shard after an unavailable failure.
func (f *fleet) markDown(i int) { f.down[i].Store(true) }

// readyProbeTimeout bounds the readiness classification pings.
const readyProbeTimeout = 2 * time.Second

// ready reports deployment readiness for the batch query path, caching
// the first positive answer. ANY non-excluded shard reporting trained
// answers for the deployment (the trained flag is part of the replicated
// state); the checks fan out in parallel so an unreachable remote shard
// costs at most one timeout, not one per shard. When NO shard reports
// trained the error distinguishes a genuinely untrained deployment
// (ErrNotTrained — locals awaiting Train) from an unreachable or
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
	r.maybeProbe(f)
	type status struct{ trained, unavailable bool }
	sts := make([]status, len(f.shards))
	checked := 0
	var wg sync.WaitGroup
	for i := range f.shards {
		if f.down[i].Load() {
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
			f.markDown(i)
			anyUnavailable = true
		}
	}
	if anyUnavailable {
		return fmt.Errorf("%w: no reachable trained shard", ErrShardUnavailable)
	}
	return core.ErrNotTrained
}

// NewRouter assembles a router over pre-built shards — the entry point for
// RPC and mixed local/remote deployments. Shards must be passed in index
// order.
func NewRouter(shards ...Shard) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	for i, s := range shards {
		if s.Index() != i {
			return nil, fmt.Errorf("shard: shard at position %d reports index %d", i, s.Index())
		}
	}
	return newRouter(shards, nil), nil
}

// New builds an n-shard in-process deployment from one engine Config. The
// config's ShardIndex/ShardCount are overridden per shard; n <= 1 degrades
// to a single-engine deployment behind the same Router surface.
func New(cfg core.Config, n int) *Router {
	if n < 1 {
		n = 1
	}
	shards := make([]Shard, n)
	locals := make([]*core.Engine, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.ShardIndex, c.ShardCount = i, n
		locals[i] = core.New(c)
		shards[i] = NewLocal(i, locals[i])
	}
	return newRouter(shards, locals)
}

// FromSnapshot boots an n-shard in-process deployment from ONE trained
// engine snapshot (core.SaveTo bytes): every shard restores the same
// replicated state and rebuilds only its own leaf partition. This is the
// cheap way to stand up a deployment — one training or one -save run, N
// boots — and the model ssrec-server -model -shards uses.
func FromSnapshot(data []byte, n int) (*Router, error) {
	if n < 1 {
		n = 1
	}
	shards := make([]Shard, n)
	locals := make([]*core.Engine, n)
	for i := 0; i < n; i++ {
		e, err := core.LoadShardFrom(bytes.NewReader(data), i, n)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		locals[i] = e
		shards[i] = NewLocal(i, e)
	}
	return newRouter(shards, locals), nil
}

// NewReplicated builds an in-process deployment of n slots × rep replicas:
// every slot is a ReplicaSet of rep identically-partitioned engines behind
// the same Router surface. rep <= 1 still wraps each slot in a one-replica
// set, so the replica code path is exercised uniformly.
func NewReplicated(cfg core.Config, n, rep int) (*Router, error) {
	if n < 1 {
		n = 1
	}
	if rep < 1 {
		rep = 1
	}
	shards := make([]Shard, n)
	grid := make([][]*core.Engine, n)
	for i := 0; i < n; i++ {
		grid[i] = make([]*core.Engine, rep)
		members := make([]Shard, rep)
		for j := 0; j < rep; j++ {
			c := cfg
			c.ShardIndex, c.ShardCount = i, n
			grid[i][j] = core.New(c)
			members[j] = NewLocal(i, grid[i][j])
		}
		rs, err := NewReplicaSet(i, members...)
		if err != nil {
			return nil, err
		}
		shards[i] = rs
	}
	r := newRouter(shards, nil)
	r.fl().replLocals = grid
	return r, nil
}

// FromSnapshotReplicated boots an n-slot × rep-replica in-process
// deployment from ONE trained-engine snapshot: every replica of slot i
// restores the same replicated state and rebuilds slot i's leaf partition,
// so any replica answers a slot query bit-identically.
func FromSnapshotReplicated(data []byte, n, rep int) (*Router, error) {
	if n < 1 {
		n = 1
	}
	if rep < 1 {
		rep = 1
	}
	shards := make([]Shard, n)
	grid := make([][]*core.Engine, n)
	for i := 0; i < n; i++ {
		grid[i] = make([]*core.Engine, rep)
		members := make([]Shard, rep)
		for j := 0; j < rep; j++ {
			e, err := core.LoadShardFrom(bytes.NewReader(data), i, n)
			if err != nil {
				return nil, fmt.Errorf("slot %d replica %d: %w", i, j, err)
			}
			grid[i][j] = e
			members[j] = NewLocal(i, e)
		}
		rs, err := NewReplicaSet(i, members...)
		if err != nil {
			return nil, err
		}
		shards[i] = rs
	}
	r := newRouter(shards, nil)
	r.fl().replLocals = grid
	return r, nil
}

// Shards reports the deployment width.
func (r *Router) Shards() int { return len(r.fl().shards) }

// Partition reports the current fleet's versioned ownership table.
func (r *Router) Partition() model.Partition { return r.fl().partition }

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
		if f.down[i].Load() {
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

// Owner returns the shard index that materialises a user's leaves under
// the current partition epoch.
func (r *Router) Owner(userID string) int {
	return r.fl().partition.Owner(userID)
}

// Down lists the currently excluded shard indices, ascending.
func (r *Router) Down() []int {
	f := r.fl()
	var out []int
	for i := range f.down {
		if f.down[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// SetProbeInterval adjusts the BASE interval of the lazy re-probe (each
// shard backs off exponentially from this base while it keeps failing,
// capped at ProbeBackoffCap, and resets to it on the first success);
// d <= 0 restores the default. Setting the base rewinds every shard's
// backoff and makes it due immediately.
func (r *Router) SetProbeInterval(d time.Duration) {
	if d <= 0 {
		d = DefaultProbeInterval
	}
	r.fl().probes.setBase(d)
}

// Probe synchronously re-checks every excluded shard and re-includes the
// ones that pass. A shard implementing Pinger must report healthy,
// identity-correct and trained — and, when replicated writes landed
// while it was out (missedWrite), its boot epoch must have CHANGED since
// last observed, proving it was re-seeded from a snapshot rather than
// left running pre-exclusion state; a merely-reachable stale shard would
// silently serve rankings missing every batch it skipped. Shards without
// a probe surface (in-process) are re-included optimistically. Probe
// returns the re-included indices.
func (r *Router) Probe(ctx context.Context) []int {
	f := r.fl()
	var up []int
	for i := range f.shards {
		if !f.down[i].Load() {
			continue
		}
		if f.probeOne(ctx, i) {
			f.probes.success(i)
			up = append(up, i)
		} else {
			f.probes.failure(i)
		}
	}
	return up
}

// probeOne re-checks one excluded shard and re-includes it when it passes;
// reports whether the shard rejoined. Extracted from Probe so the lazy
// query-path probe can sweep just the shards whose backoff is due.
func (f *fleet) probeOne(ctx context.Context, i int) bool {
	gen := f.debtGen[i].Load()
	if p, ok := f.shards[i].(Pinger); ok {
		epoch, err := p.Ping(ctx)
		if err != nil {
			return false
		}
		if f.missedWrite[i].Load() {
			// The shard missed replicated writes: re-inclusion is safe
			// ONLY on proof of a re-seed, i.e. a boot epoch that changed
			// from a recorded baseline. No epoch support, no baseline,
			// or an unchanged epoch all FAIL CLOSED — recording the
			// observed epoch as the baseline, so that a direct operator
			// handoff to the shardd becomes provable on the next probe.
			known := f.knownEpoch(i)
			if epoch == "" || known == "" || epoch == known {
				f.recordEpoch(i, epoch)
				return false
			}
			f.clearDebtIfUnchanged(i, gen)
		}
		f.recordEpoch(i, epoch)
	} else {
		// No probe surface (in-process): re-include optimistically.
		f.clearDebtIfUnchanged(i, gen)
	}
	f.down[i].Store(false)
	// Close the probe/broadcast race: debt recorded while we were
	// deciding survived the generation-guarded clear above — stay
	// excluded rather than serving one batch behind.
	if f.missedWrite[i].Load() {
		f.down[i].Store(true)
		return false
	}
	return true
}

// maybeProbe kicks an asynchronous probe of the excluded shards whose
// backoff interval has elapsed, so a recovered shard rejoins without an
// operator call but a dead one costs no per-query latency — and, unlike a
// fixed-interval sweep, a shard that stays dead is probed less and less
// often (ProbeBackoffCap-bounded) instead of every interval forever.
func (r *Router) maybeProbe(f *fleet) {
	var down []int
	for i := range f.down {
		if f.down[i].Load() {
			down = append(down, i)
		}
	}
	if len(down) == 0 {
		return
	}
	due := f.probes.claimDue(down)
	if len(due) == 0 {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		defer cancel()
		for _, i := range due {
			if !f.down[i].Load() {
				continue
			}
			if f.probeOne(ctx, i) {
				f.probes.success(i)
			} else {
				f.probes.failure(i)
			}
		}
	}()
}

// HandoffSnapshot ships a trained-engine snapshot (core.SaveTo bytes) to
// every shard that implements SnapshotReceiver and re-includes it — the
// boot path of a remote deployment and the recovery path of an excluded
// shard (which has missed replicated batches and MUST reboot from a fresh
// snapshot before rejoining). In-process shards are skipped; they boot
// through New/FromSnapshot/Train.
func (r *Router) HandoffSnapshot(ctx context.Context, snapshot []byte) error {
	f := r.fl()
	for i, s := range f.shards {
		sr, ok := s.(SnapshotReceiver)
		if !ok {
			continue
		}
		// Capture the debt generation BEFORE the push: a broadcast that
		// lands while the snapshot is in flight records debt the snapshot
		// cannot contain, and the generation-guarded clear below leaves
		// that debt (and the exclusion) in place.
		gen := f.debtGen[i].Load()
		if err := sr.Handoff(ctx, snapshot); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		// The handoff re-seeded the shard: clear the debt it covers and
		// record the fresh boot epoch so later probes have a baseline.
		f.clearDebtIfUnchanged(i, gen)
		f.down[i].Store(false)
		if p, ok := s.(Pinger); ok {
			if epoch, err := p.Ping(ctx); err == nil {
				f.recordEpoch(i, epoch)
			}
		}
		// Debt that survived the guarded clear keeps the shard excluded —
		// it rejoins on the next handoff (or probe after a re-seed).
		if f.missedWrite[i].Load() {
			f.down[i].Store(true)
		}
	}
	return nil
}

// Train bootstraps an in-process deployment: shard 0 trains once on the
// full stream, then every other shard boots from its snapshot
// (LoadShardFrom) — identical replicated state, own leaf partition — so
// an n-shard deployment costs ONE training, not n.
func (r *Router) Train(items []model.Item, interactions []model.Interaction, resolve func(string) (model.Item, bool)) error {
	f := r.fl()
	if f.replLocals != nil {
		return r.trainReplicated(f, items, interactions, resolve)
	}
	if f.locals == nil {
		return fmt.Errorf("shard: Train requires an in-process deployment (New or FromSnapshot); remote deployments train out-of-band and boot via HandoffSnapshot")
	}
	if err := f.locals[0].Train(items, interactions, resolve); err != nil {
		return err
	}
	if len(f.locals) == 1 {
		return nil
	}
	var buf bytes.Buffer
	if err := f.locals[0].SaveTo(&buf); err != nil {
		return fmt.Errorf("shard: snapshot shard 0: %w", err)
	}
	data := buf.Bytes()
	for i := 1; i < len(f.locals); i++ {
		e, err := core.LoadShardFrom(bytes.NewReader(data), i, len(f.locals))
		if err != nil {
			return fmt.Errorf("shard %d: boot from snapshot: %w", i, err)
		}
		f.locals[i] = e
		f.shards[i] = NewLocal(i, e)
	}
	return nil
}

// trainReplicated bootstraps a replicated in-process deployment: replica 0
// of slot 0 trains once on the full stream, then every other replica of
// every slot boots from its snapshot (LoadShardFrom) — identical
// replicated state, its slot's leaf partition — so an n×rep deployment
// still costs ONE training.
func (r *Router) trainReplicated(f *fleet, items []model.Item, interactions []model.Interaction, resolve func(string) (model.Item, bool)) error {
	if err := f.replLocals[0][0].Train(items, interactions, resolve); err != nil {
		return err
	}
	n := len(f.replLocals)
	if n == 1 && len(f.replLocals[0]) == 1 {
		return nil
	}
	var buf bytes.Buffer
	if err := f.replLocals[0][0].SaveTo(&buf); err != nil {
		return fmt.Errorf("shard: snapshot slot 0: %w", err)
	}
	data := buf.Bytes()
	for i := range f.replLocals {
		for j := range f.replLocals[i] {
			if i == 0 && j == 0 {
				continue
			}
			e, err := core.LoadShardFrom(bytes.NewReader(data), i, n)
			if err != nil {
				return fmt.Errorf("slot %d replica %d: boot from snapshot: %w", i, j, err)
			}
			f.replLocals[i][j] = e
			f.shards[i].(*ReplicaSet).setReplica(j, NewLocal(i, e))
		}
	}
	return nil
}

// SetParallelism adjusts the intra-query worker count of every in-process
// shard (no-op entries for non-local shards; remote shards take the
// per-call core.WithParallelism option or their shardd -partitions flag).
func (r *Router) SetParallelism(n int) {
	f := r.fl()
	for _, e := range f.locals {
		if e != nil {
			e.SetParallelism(n)
		}
	}
	for _, row := range f.replLocals {
		for _, e := range row {
			if e != nil {
				e.SetParallelism(n)
			}
		}
	}
}

// SetFullRefresh toggles the dirty-category-mask refresh optimisation on
// every in-process shard (core.Engine.SetFullRefresh; true restores the
// rebuild-everything reference path). Refresh policy is shard-local
// maintenance — it never changes what a shard serves, only how it gets
// there — so remote shards keep their own configuration.
func (r *Router) SetFullRefresh(on bool) {
	f := r.fl()
	for _, e := range f.locals {
		if e != nil {
			e.SetFullRefresh(on)
		}
	}
	for _, row := range f.replLocals {
		for _, e := range row {
			if e != nil {
				e.SetFullRefresh(on)
			}
		}
	}
}

// SetIncrementalFold toggles the incremental BiHMM fold-in
// (core.Engine.SetIncrementalFold) on every in-process shard; like
// SetFullRefresh this is shard-local maintenance policy.
func (r *Router) SetIncrementalFold(on bool) {
	f := r.fl()
	for _, e := range f.locals {
		if e != nil {
			e.SetIncrementalFold(on)
		}
	}
	for _, row := range f.replLocals {
		for _, e := range row {
			if e != nil {
				e.SetIncrementalFold(on)
			}
		}
	}
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
	r.maybeProbe(f) // write-only workloads must also drive shard recovery
	bctx := detach(ctx)
	bctx, obsSpan := telemetry.StartSpan(bctx, "router.observe")
	obsSpan.SetAttr("batch", strconv.Itoa(len(batch)))
	defer obsSpan.End()
	reps := make([]core.BatchReport, len(f.shards))
	errs := make([]error, len(f.shards))
	ran := make([]bool, len(f.shards))
	var excluded []int
	var wg sync.WaitGroup
	for i, s := range f.shards {
		if f.down[i].Load() {
			excluded = append(excluded, i)
			continue
		}
		ran[i] = true
		wg.Add(1)
		go func(i int, s Shard) {
			defer wg.Done()
			reps[i], errs[i] = s.ObserveBatch(bctx, batch)
		}(i, s)
	}
	wg.Wait()
	var rep core.BatchReport
	var fatal error
	base := false
	anyUnavail := false
	var behind []int // shards that did not (or may not have) applied the batch
	for i := range f.shards {
		if !ran[i] {
			continue
		}
		if errs[i] != nil {
			if errors.Is(errs[i], ErrShardUnavailable) {
				f.markDown(i)
				anyUnavail = true
				excluded = append(excluded, i)
				continue
			}
			behind = append(behind, i)
			// A clean non-transport error (4xx, decode failure) proves the
			// shardd REFUSED the batch — it did not apply it, while its
			// siblings may have. The call fails loudly with this error, and
			// the debt below keeps the shard from silently serving behind.
			if fatal == nil {
				fatal = fmt.Errorf("shard %d: %w", i, errs[i])
			}
			continue
		}
		if !base {
			// Applied/Rejected/Errors are deterministic and identical on
			// every shard; take them from the first healthy report.
			rep = reps[i]
			rep.Flushed = 0
			base = true
		}
		rep.Flushed += reps[i].Flushed
	}
	// Missed-write accounting, BEFORE any error return so no path skips
	// it. Every shard that skipped (pre-excluded) or failed the batch owes
	// a re-seed IF the batch may have mutated its siblings: a healthy
	// report proves exactly what landed (Applied > 0 — validation is
	// deterministic, so Applied == 0 proves a no-op everywhere), and an
	// unavailable leg proves nothing — the shardd applies fully-received
	// bodies under a detached context, so it MAY have applied — which
	// records debt conservatively. recordDebt re-asserts down, closing
	// the race with a concurrent Probe that cleared the flag before this
	// batch's debt landed.
	mutated := (base && rep.Applied > 0) || (!base && anyUnavail)
	if mutated {
		for _, i := range excluded {
			f.recordDebt(i)
		}
		for _, i := range behind {
			f.recordDebt(i)
		}
	}
	// Mirror the batch to an in-flight reshard AFTER the old fleet
	// applied it: the replacement fleet replays the ring in arrival
	// order, so a sequential writer's stream lands on it in exactly the
	// order the old fleet saw.
	if rsd := r.rsd.Load(); rsd != nil {
		rsd.mirrorObserve(batch)
	}
	if fatal != nil {
		return rep, fatal
	}
	if len(excluded) > 0 {
		return rep, degradedErr(excluded)
	}
	return rep, nil
}

// registerBroadcast runs the deterministic batch prologue on every shard
// in parallel. Uncancellable for the same drift reason as ObserveBatch.
// Unavailable shards are excluded rather than failing the query — the
// degraded-mode error surfaces on the query leg that follows.
func (r *Router) registerBroadcast(ctx context.Context, items []model.Item) error {
	r.reshardMu.RLock()
	defer r.reshardMu.RUnlock()
	f := r.fl()
	bctx := detach(ctx)
	bctx, regSpan := telemetry.StartSpan(bctx, "router.register")
	defer regSpan.End()
	errs := make([]error, len(f.shards))
	changed := make([]bool, len(f.shards))
	ran := make([]bool, len(f.shards))
	var wg sync.WaitGroup
	for i, s := range f.shards {
		if f.down[i].Load() {
			continue
		}
		ran[i] = true
		wg.Add(1)
		go func(i int, s Shard) {
			defer wg.Done()
			changed[i], errs[i] = s.RegisterItems(bctx, items)
		}(i, s)
	}
	wg.Wait()
	// The dictionaries are replicated, so every healthy shard agrees on
	// whether the batch contained anything new: a successful leg with
	// changed == false PROVES the broadcast was a no-op everywhere (warm
	// re-registration, the overwhelmingly common query path) and no debt
	// accrues — otherwise lazy re-inclusion would be unreachable under
	// ordinary read traffic. A batch that DID advance the state — or
	// whose outcome is unknowable because no leg succeeded (a failed
	// remote leg may still have applied server-side) — leaves every
	// skipped or failed shard owing a re-seed.
	anySuccess, advanced, anyUnavail := false, false, false
	var fatal error
	for i := range f.shards {
		if !ran[i] {
			continue
		}
		if errs[i] == nil {
			anySuccess = true
			advanced = advanced || changed[i]
			continue
		}
		if !errors.Is(errs[i], ErrShardUnavailable) {
			// A clean refusal: this shard provably did not register the
			// batch; debt below if its siblings may have.
			if fatal == nil {
				fatal = fmt.Errorf("shard %d: %w", i, errs[i])
			}
			continue
		}
		anyUnavail = true
		f.markDown(i)
	}
	// Debt accrues for every shard that skipped or failed the broadcast
	// when it may have advanced the replicated state elsewhere: proven by
	// a successful changed=true leg, or unknowable because only
	// unavailable legs ran (they may have applied server-side). A
	// successful changed=false leg proves a no-op everywhere, so warm
	// re-registrations — the common query path — accrue no debt and lazy
	// re-inclusion stays reachable under ordinary read traffic.
	mutated := (anySuccess && advanced) || (!anySuccess && anyUnavail)
	if len(items) > 0 && mutated {
		for i := range f.shards {
			if !ran[i] || errs[i] != nil {
				f.recordDebt(i)
			}
		}
	}
	// Mirror registrations that (may have) advanced the replicated
	// dictionaries; a proven no-op is a no-op on the replacement fleet
	// too (it boots from a snapshot that already contains those items).
	if len(items) > 0 && mutated {
		if rsd := r.rsd.Load(); rsd != nil {
			rsd.mirrorRegister(items)
		}
	}
	return fatal
}

// recommendOne scatters one item to every healthy shard under one shared
// bound and gathers the per-shard heaps into the global top-k. Stats are
// summed; Partitions accumulates the workers used across shards. With
// shards excluded the merged result is partial (their owned users are
// missing) and the call wraps ErrShardUnavailable alongside it.
func (r *Router) recommendOne(ctx context.Context, v model.Item, o core.QueryOptions) (core.Result, error) {
	f := r.fl()
	r.maybeProbe(f)
	if len(f.shards) == 1 {
		if f.down[0].Load() {
			return core.Result{ItemID: v.ID}, degradedErr([]int{0})
		}
		res, err := f.shards[0].Recommend(ctx, v, o, nil)
		if err != nil && errors.Is(err, ErrShardUnavailable) {
			f.markDown(0)
		}
		return res, err
	}
	ctx, scatterSpan := telemetry.StartSpan(ctx, "router.scatter")
	scatterSpan.SetAttr("shards", strconv.Itoa(len(f.shards)))
	b := sigtree.NewBound()
	parts := make([]core.Result, len(f.shards))
	errs := make([]error, len(f.shards))
	ran := make([]bool, len(f.shards))
	var excluded []int
	var wg sync.WaitGroup
	for i, s := range f.shards {
		if f.down[i].Load() {
			excluded = append(excluded, i)
			continue
		}
		ran[i] = true
		wg.Add(1)
		go func(i int, s Shard) {
			defer wg.Done()
			lctx, leg := telemetry.StartSpan(ctx, "router.shard")
			leg.SetAttr("shard", strconv.Itoa(i))
			parts[i], errs[i] = s.Recommend(lctx, v, o, b)
			leg.End()
		}(i, s)
	}
	wg.Wait()
	scatterSpan.End()
	res := core.Result{ItemID: v.ID}
	lists := make([][]model.Recommendation, 0, len(parts))
	var firstErr error
	for i := range parts {
		if !ran[i] {
			continue
		}
		if errs[i] != nil && errors.Is(errs[i], ErrShardUnavailable) {
			f.markDown(i)
			excluded = append(excluded, i)
			continue
		}
		lists = append(lists, parts[i].Recommendations)
		res.Stats.Add(parts[i].Stats)
		res.Stats.Partitions += parts[i].Stats.Partitions
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

// RecommendCtx mirrors Engine.RecommendCtx over the deployment: register
// the item everywhere (deterministically), then scatter-gather the query.
// In degraded mode it returns the partial result AND a wrapped
// ErrShardUnavailable.
func (r *Router) RecommendCtx(ctx context.Context, v model.Item, opts ...core.Option) (core.Result, error) {
	o := core.ResolveOptions(opts...)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return core.Result{ItemID: v.ID}, err
		}
	}
	if err := r.registerBroadcast(ctx, []model.Item{v}); err != nil {
		return core.Result{ItemID: v.ID}, err
	}
	return r.recommendOne(ctx, v, o)
}

// RecommendBatch mirrors Engine.RecommendBatch over the deployment:
// results[i] answers items[i]; item-scoped failures (including degraded
// partial results) land in results[i].Err while the call-scoped error
// reports cancellation or an untrained deployment. The registration
// prologue is broadcast ONCE in batch order — per-item registration under
// the worker pool would advance the shards' producer layers in
// nondeterministic order.
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
				res, err := r.recommendOne(ctx, items[i], o)
				if err != nil {
					res.Err = err
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return results, err
		}
	}
	return results, nil
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

// Parallelism reports the intra-query worker count of the first healthy
// shard.
func (r *Router) Parallelism() int { return r.fl().firstUpStats().Parallelism }

// firstUpStats snapshots the first non-excluded shard. With every shard
// excluded it reports zero values WITHOUT a round trip — a monitoring
// poll against a fully partitioned fleet must not hang on a dead
// shard's timeout.
func (f *fleet) firstUpStats() Stats {
	for i := range f.shards {
		if !f.down[i].Load() {
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
