// resharder.go is the online resharding engine: Router.Reshard
// re-partitions the user-block hash space mid-stream (N→M shards, split
// or merge) with no downtime and provably exact results.
//
// # Mechanics
//
// A reshard never mutates the serving fleet. Ownership is always
// model.ShardOf(·, width), so the successor epoch is just the new width
// m. The reshard builds a complete REPLACEMENT fleet of m slots off to
// the side and retires the old fleet with one atomic pointer swap:
//
//  1. Watermark (reshardMu held exclusively, writers paused for one
//     snapshot export): ONE snapshot is exported from a healthy shard —
//     it carries the complete replicated state, so it can seed every new
//     slot — and the mirror ring is installed. Every write admitted
//     after the watermark is appended to the ring by the write paths
//     (router.go) AFTER the old fleet applied it.
//  2. Seeding: each new member boots from the snapshot as slot i of m
//     (core.LoadShardFrom in-process; a snapshot handoff for remote
//     members, which were started as slot i of m), rebuilding only the
//     leaves ShardOf(·, m) assigns it. The old fleet keeps serving reads
//     AND writes.
//  3. Catch-up: the ring is drained in arrival order, each mirrored
//     micro-batch broadcast to every new member (the micro-batch stays
//     the atomic replication unit). Reports from the new fleet are
//     DISCARDED — the old fleet's reports are the client-visible
//     transcript until the flip, which is what makes the transcript
//     independent of flip timing.
//  4. Flip: reshardMu is taken exclusively again, the ring's final tail
//     (bounded — writers are paused) is applied, and the fleet pointer
//     swaps. At that instant old and new fleets hold bit-identical
//     state, so a query served a nanosecond before the flip by the old
//     fleet and a nanosecond after by the new one return the same
//     ranking. The old fleet is retired; in-flight operations still
//     holding it finish against intact state.
//
// # Exactness
//
// Every admitted write lands on the new fleet exactly once: writes
// before the watermark are in the snapshot (exported under the
// exclusive gate, so no write straddles it), writes after it are in the
// ring (appended inside the same read-locked critical section that
// broadcast them), and the flip drains the ring to empty while writers
// are paused. Sequential streams therefore replay onto the new fleet in
// the exact order the old fleet applied them, and the post-flip fleet
// owns users by model.ShardOf(·, m) — the conformance gate
// (reshard_test.go) replays the 11.5k-interaction fixture through a
// mid-stream 2→4 split and 4→2 merge and asserts bit-identical
// transcripts against the static single-engine reference.
package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ssrec/internal/core"
	"ssrec/internal/model"
)

// ErrReshardInProgress rejects a Reshard while another one is active —
// epochs are strictly sequential.
var ErrReshardInProgress = errors.New("shard: reshard already in progress")

// Reshard phases, in order; a terminal phase is done, failed or
// cancelled.
const (
	ReshardPhaseSeeding   = "seeding"
	ReshardPhaseCatchUp   = "catchup"
	ReshardPhaseFlipping  = "flipping"
	ReshardPhaseDone      = "done"
	ReshardPhaseFailed    = "failed"
	ReshardPhaseCancelled = "cancelled"
)

// ReshardStatus snapshots a reshard for /v2/stats and operators.
type ReshardStatus struct {
	// Active reports a reshard in flight; the remaining fields then
	// describe it. When idle they describe the LAST reshard (zero value
	// if none ever ran).
	Active bool
	// Phase is the current (or final) phase.
	Phase string
	// FromShards/ToShards are the old and new deployment widths.
	FromShards int
	ToShards   int
	// FromEpoch/ToEpoch are the fleet epochs being retired and installed
	// (Router.Epoch).
	FromEpoch uint64
	ToEpoch   uint64
	// MigratingBlocks counts the residues of the user hash modulo
	// lcm(FromShards, ToShards) whose owner changes — the share of users
	// whose leaves move. It depends on the two widths only.
	MigratingBlocks int
	// Members and Seeded track the new fleet's boot progress.
	Members int
	Seeded  int
	// RingDepth is the current mirror-ring backlog; MirroredBatches the
	// total batches mirrored so far.
	RingDepth       int
	MirroredBatches uint64
	// Error is the failure reason of a failed/cancelled reshard.
	Error string
	// Completed counts reshards that flipped over the router's lifetime.
	Completed uint64
}

// mirrorEntry is one write batch captured by the mirror ring: exactly
// one of items (a registration) or obs (an observation micro-batch) is
// set. Entries reference the caller's slices without copying, the same
// contract as ReplicaSet.logWrite.
type mirrorEntry struct {
	items []model.Item
	obs   []core.Observation
}

// reshardState is the live state of one reshard: the mirror ring the
// write paths append to, and the descriptive fields the status surface
// reads.
type reshardState struct {
	fromShards, toShards int
	fromEpoch, toEpoch   uint64
	migrating            int
	members              int

	phase    atomic.Value // string
	seeded   atomic.Int64
	mirrored atomic.Uint64

	mu   sync.Mutex
	ring []mirrorEntry
}

func newReshardState(from, to int, epoch uint64) *reshardState {
	rsd := &reshardState{
		fromShards: from,
		toShards:   to,
		fromEpoch:  epoch,
		toEpoch:    epoch + 1,
		migrating:  migratingResidues(from, to),
		members:    to,
	}
	rsd.phase.Store(ReshardPhaseSeeding)
	return rsd
}

// migratingResidues counts the residues r of the user hash modulo
// lcm(n, m) with r%n != r%m: the hash classes whose owner changes when an
// n-wide deployment reshards to m. r%n == r%m == a makes r ≡ a modulo
// lcm(n, m), so r == a < min(n, m): every other residue moves.
func migratingResidues(n, m int) int {
	return n/gcd(n, m)*m - min(n, m)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (rsd *reshardState) setPhase(p string) { rsd.phase.Store(p) }

// mirrorObserve appends one observation micro-batch to the ring.
func (rsd *reshardState) mirrorObserve(batch []core.Observation) {
	rsd.mu.Lock()
	rsd.ring = append(rsd.ring, mirrorEntry{obs: batch})
	rsd.mu.Unlock()
	rsd.mirrored.Add(1)
}

// mirrorRegister appends one registration batch to the ring.
func (rsd *reshardState) mirrorRegister(items []model.Item) {
	rsd.mu.Lock()
	rsd.ring = append(rsd.ring, mirrorEntry{items: items})
	rsd.mu.Unlock()
	rsd.mirrored.Add(1)
}

// take drains the ring, returning the entries in arrival order.
func (rsd *reshardState) take() []mirrorEntry {
	rsd.mu.Lock()
	defer rsd.mu.Unlock()
	out := rsd.ring
	rsd.ring = nil
	return out
}

func (rsd *reshardState) depth() int {
	rsd.mu.Lock()
	defer rsd.mu.Unlock()
	return len(rsd.ring)
}

func (rsd *reshardState) snapshot(active bool, errText string, completed uint64) ReshardStatus {
	return ReshardStatus{
		Active:          active,
		Phase:           rsd.phase.Load().(string),
		FromShards:      rsd.fromShards,
		ToShards:        rsd.toShards,
		FromEpoch:       rsd.fromEpoch,
		ToEpoch:         rsd.toEpoch,
		MigratingBlocks: rsd.migrating,
		Members:         rsd.members,
		Seeded:          int(rsd.seeded.Load()),
		RingDepth:       rsd.depth(),
		MirroredBatches: rsd.mirrored.Load(),
		Error:           errText,
		Completed:       completed,
	}
}

// ReshardStatus reports the in-flight reshard, or the last finished one
// when idle.
//
// The completion count is read first: a reshard stores its terminal status
// before it counts itself, so a count that includes it comes with that
// status, never with the one before it.
func (r *Router) ReshardStatus() ReshardStatus {
	done := r.reshardsDone.Load()
	if rsd := r.rsd.Load(); rsd != nil {
		return rsd.snapshot(true, "", done)
	}
	if last := r.lastReshard.Load(); last != nil {
		st := *last
		st.Completed = done
		return st
	}
	return ReshardStatus{Completed: done}
}

// Reshard re-partitions the deployment to m shards online — the
// split/merge entry point. It blocks until the new fleet serves (the
// atomic flip happened), the context is cancelled, or the migration
// fails; in the two failure cases the old fleet was never disturbed —
// rollback is implicit, the replacement fleet is simply discarded.
//
// With no members, Reshard builds an in-process fleet of m engine
// shards, each booted from the migration snapshot (the elastic-scale
// path of an in-process deployment). With members — len(members) == m,
// members[i].Index() == i — the caller supplies the new fleet, e.g.
// shardrpc clients for freshly started shardd processes: every member
// must report its width as m (a Width() int method), accept the
// snapshot handoff (SnapshotReceiver) and the mirrored catch-up batches.
// A member that fails those checks is refused before the watermark, so
// the old fleet is never disturbed.
//
// Only one reshard runs at a time (ErrReshardInProgress). Writes keep
// flowing throughout — they pause only while the watermark snapshot is
// exported and during the final ring drain of the flip; reads never
// pause at all.
func (r *Router) Reshard(ctx context.Context, m int, members ...Shard) error {
	if m < 1 {
		return fmt.Errorf("shard: reshard to %d shards", m)
	}
	if len(members) != 0 {
		if len(members) != m {
			return fmt.Errorf("shard: reshard to %d shards got %d members", m, len(members))
		}
		for i, mb := range members {
			if mb.Index() != i {
				return fmt.Errorf("shard: member at position %d reports index %d", i, mb.Index())
			}
			if _, ok := mb.(SnapshotReceiver); !ok {
				return fmt.Errorf("shard: member %d (%T) cannot receive a snapshot handoff", i, mb)
			}
			w, ok := mb.(interface{ Width() int })
			if !ok {
				return fmt.Errorf("shard: member %d (%T) does not report its width", i, mb)
			}
			if w.Width() != m {
				return fmt.Errorf("shard: member %d reports width %d, want %d", i, w.Width(), m)
			}
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Watermark: pause writers for one snapshot export and install the
	// mirror atomically with it, so every write is either in the
	// snapshot or in the ring — never both, never neither.
	r.reshardMu.Lock()
	if r.rsd.Load() != nil {
		r.reshardMu.Unlock()
		return ErrReshardInProgress
	}
	old := r.fl()
	rsd := newReshardState(len(old.shards), m, old.epoch)
	snapshot, err := old.snapshotSource(ctx)
	if err != nil {
		r.reshardMu.Unlock()
		return r.finishReshard(rsd, ReshardPhaseFailed, fmt.Errorf("shard: reshard snapshot export: %w", err))
	}
	r.rsd.Store(rsd)
	r.reshardMu.Unlock()

	// Seeding: boot every new member from the watermark snapshot as its
	// slot of m. The old fleet serves throughout; admitted writes pile
	// into the ring.
	newShards := make([]Shard, m)
	if len(members) == 0 {
		for i := 0; i < m; i++ {
			if err := ctx.Err(); err != nil {
				return r.finishReshard(rsd, ReshardPhaseCancelled, err)
			}
			e, err := core.LoadShardFrom(bytes.NewReader(snapshot), i, m)
			if err != nil {
				if ctx.Err() != nil {
					return r.finishReshard(rsd, ReshardPhaseCancelled, ctx.Err())
				}
				return r.finishReshard(rsd, ReshardPhaseFailed, fmt.Errorf("shard: seed slot %d: %w", i, err))
			}
			newShards[i] = NewLocal(i, e)
			rsd.seeded.Add(1)
		}
	} else {
		for i, mb := range members {
			if err := ctx.Err(); err != nil {
				return r.finishReshard(rsd, ReshardPhaseCancelled, err)
			}
			if err := mb.(SnapshotReceiver).Handoff(ctx, snapshot); err != nil {
				if ctx.Err() != nil {
					return r.finishReshard(rsd, ReshardPhaseCancelled, ctx.Err())
				}
				return r.finishReshard(rsd, ReshardPhaseFailed, fmt.Errorf("shard: seed slot %d: %w", i, err))
			}
			newShards[i] = mb
			rsd.seeded.Add(1)
		}
	}

	// Catch-up: drain the ring in arrival order without blocking
	// writers. Mirrored reports are discarded — the old fleet's reports
	// are the client-visible transcript until the flip.
	rsd.setPhase(ReshardPhaseCatchUp)
	for {
		entries := rsd.take()
		if len(entries) == 0 {
			break
		}
		if err := applyMirror(ctx, newShards, entries); err != nil {
			if ctx.Err() != nil {
				return r.finishReshard(rsd, ReshardPhaseCancelled, ctx.Err())
			}
			return r.finishReshard(rsd, ReshardPhaseFailed, err)
		}
	}

	// Flip: pause writers once more, apply the final (bounded) tail and
	// swap the fleet pointer. Writers cannot append while the exclusive
	// gate is held, so one drain round provably empties the ring.
	rsd.setPhase(ReshardPhaseFlipping)
	r.reshardMu.Lock()
	for {
		entries := rsd.take()
		if len(entries) == 0 {
			break
		}
		if err := applyMirror(ctx, newShards, entries); err != nil {
			r.reshardMu.Unlock()
			if ctx.Err() != nil {
				return r.finishReshard(rsd, ReshardPhaseCancelled, ctx.Err())
			}
			return r.finishReshard(rsd, ReshardPhaseFailed, err)
		}
	}
	nf := newFleet(newShards, rsd.toEpoch)
	nf.setProbeInterval(old.probeInterval())
	r.fleet.Store(nf)
	r.rsd.Store(nil)
	r.reshardMu.Unlock()
	return r.finishReshard(rsd, ReshardPhaseDone, nil)
}

// finishReshard retires the reshard state, records the terminal status
// and passes the error through. A completed reshard stores its status,
// already counting itself, before the completion counter moves, so no
// reader sees the new count with an older status.
func (r *Router) finishReshard(rsd *reshardState, phase string, err error) error {
	r.rsd.CompareAndSwap(rsd, nil)
	rsd.setPhase(phase)
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	done := r.reshardsDone.Load()
	if phase == ReshardPhaseDone {
		done++
	}
	st := rsd.snapshot(false, errText, done)
	r.lastReshard.Store(&st)
	if phase == ReshardPhaseDone {
		r.reshardsDone.Add(1)
	}
	return err
}

// applyMirror replays mirrored batches onto every new member, in
// arrival order — each batch broadcast in parallel (the micro-batch is
// the atomic unit), joined before the next, exactly the ordering
// discipline of the live write path. Any member failure aborts the
// reshard: a new fleet missing one batch on one member must never
// flip in.
func applyMirror(ctx context.Context, members []Shard, entries []mirrorEntry) error {
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		errs := make([]error, len(members))
		var wg sync.WaitGroup
		for i, mb := range members {
			wg.Add(1)
			go func(i int, mb Shard) {
				defer wg.Done()
				if e.items != nil {
					_, errs[i] = mb.RegisterItems(ctx, e.items)
				} else {
					_, errs[i] = mb.ObserveBatch(ctx, e.obs)
				}
			}(i, mb)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("shard: catch-up on new slot %d: %w", i, err)
			}
		}
	}
	return nil
}
