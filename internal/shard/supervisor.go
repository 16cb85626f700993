// supervisor.go is the replica supervisor: a background loop that turns
// the manual OPERATIONS.md re-seed runbook into machinery. Each sweep it
// finds replicas that cannot rejoin on their own — blank (restarted,
// awaiting a snapshot) or stale (excluded with missed-write debt, which
// the fail-closed probe rules refuse to re-include) — and heals them by
// the cheapest safe mode. A stale replica that provably kept its state
// (unchanged boot epoch) and whose countable debt is small is healed by
// DELTA REPLAY: just the missed write batches stream to it from the
// set's in-memory tail ring. Everything else gets a snapshot: the sweep
// exports ONE from any healthy replica of any slot (a shard snapshot
// carries the full replicated state, so every slot boots from the same
// bytes) and hands it to each needy replica under the generation guard —
// and skips the export entirely when delta replay healed every needy
// replica. A final Router.Probe lets recovered slots rejoin the scatter
// set.
package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSupervisorInterval is the default sweep cadence.
const DefaultSupervisorInterval = 5 * time.Second

// supervisorOpTimeout bounds one snapshot export or handoff.
const supervisorOpTimeout = 30 * time.Second

// DefaultDeltaReplayMax is the largest missed-write debt (in batches)
// the supervisor heals by delta replay; beyond it a snapshot handoff is
// assumed cheaper than replaying the tail.
const DefaultDeltaReplayMax = 64

// SupervisorStats snapshots the supervisor's counters for /v2/stats.
type SupervisorStats struct {
	// Running reports whether the sweep loop is active.
	Running bool
	// Interval is the sweep cadence.
	Interval time.Duration
	// Cycles counts completed sweeps.
	Cycles uint64
	// Reseeds counts snapshots successfully handed to a replica.
	Reseeds uint64
	// ReseedFailures counts snapshot exports or handoffs that failed
	// (retried on the next sweep).
	ReseedFailures uint64
	// DeltaReseeds counts replicas healed by replaying just their missed
	// batches over the replay RPC instead of a snapshot handoff.
	DeltaReseeds uint64
	// DeltaReseedFailures counts delta replays that failed (the replica
	// falls back to the snapshot path the same sweep).
	DeltaReseedFailures uint64
	// SnapshotExports counts sweeps that sourced a snapshot — the
	// expensive step delta replay exists to avoid.
	SnapshotExports uint64
	// DeltaReplayMax is the debt threshold for delta reseeds.
	DeltaReplayMax int
	// LastError is the most recent failure, "" when the last sweep was
	// clean.
	LastError string
}

// Supervisor drives the auto-reseed sweeps of one Router.
type Supervisor struct {
	r        *Router
	interval time.Duration

	cycles        atomic.Uint64
	reseeds       atomic.Uint64
	failures      atomic.Uint64
	deltaReseeds  atomic.Uint64
	deltaFailures atomic.Uint64
	exports       atomic.Uint64
	deltaMax      atomic.Int64
	lastErr       atomic.Value // string

	running atomic.Bool
	stop    chan struct{}
	done    chan struct{}
	stopped sync.Once
}

// StartSupervisor attaches a supervisor to the router and starts its
// sweep loop; interval <= 0 uses DefaultSupervisorInterval. Stop the
// returned supervisor on shutdown.
func (r *Router) StartSupervisor(interval time.Duration) *Supervisor {
	s := NewSupervisor(r, interval)
	s.running.Store(true)
	go s.run()
	return s
}

// NewSupervisor builds a supervisor without starting its loop — tests
// drive Sweep directly for determinism.
func NewSupervisor(r *Router, interval time.Duration) *Supervisor {
	if interval <= 0 {
		interval = DefaultSupervisorInterval
	}
	s := &Supervisor{
		r:        r,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.lastErr.Store("")
	s.deltaMax.Store(DefaultDeltaReplayMax)
	r.supervisor.Store(s)
	return s
}

// SetDeltaReplayMax adjusts the largest missed-write debt healed by
// delta replay (n <= 0 disables delta reseeds).
func (s *Supervisor) SetDeltaReplayMax(n int) { s.deltaMax.Store(int64(n)) }

// Stop halts the sweep loop (idempotent; a no-op for a never-started
// supervisor once run exits).
func (s *Supervisor) Stop() {
	s.stopped.Do(func() { close(s.stop) })
	if s.running.Load() {
		<-s.done
		s.running.Store(false)
	}
}

func (s *Supervisor) run() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), supervisorOpTimeout)
			s.Sweep(ctx)
			cancel()
		}
	}
}

// Stats snapshots the supervisor counters.
func (s *Supervisor) Stats() SupervisorStats {
	return SupervisorStats{
		Running:             s.running.Load(),
		Interval:            s.interval,
		Cycles:              s.cycles.Load(),
		Reseeds:             s.reseeds.Load(),
		ReseedFailures:      s.failures.Load(),
		DeltaReseeds:        s.deltaReseeds.Load(),
		DeltaReseedFailures: s.deltaFailures.Load(),
		SnapshotExports:     s.exports.Load(),
		DeltaReplayMax:      int(s.deltaMax.Load()),
		LastError:           s.lastErr.Load().(string),
	}
}

// SupervisorStats exposes the attached supervisor's counters on the
// Router (ok == false when no supervisor was started).
func (r *Router) SupervisorStats() (SupervisorStats, bool) {
	s := r.supervisor.Load()
	if s == nil {
		return SupervisorStats{}, false
	}
	return s.Stats(), true
}

// reseedJob is one replica owed a snapshot, with its debt generations —
// replica-level AND router-level for its slot — captured BEFORE the
// snapshot export: debt recorded after the capture postdates the snapshot
// and must survive the reseed (the replica is retried next sweep with a
// fresher snapshot).
type reseedJob struct {
	rs        *ReplicaSet
	j         int
	sr        SnapshotReceiver
	gen       uint64
	routerGen uint64
}

// Sweep runs one supervision pass: probe excluded replicas back in where
// safe, reseed the ones that need a snapshot, then let recovered slots
// rejoin the Router. Exported so tests (and operators via a signal
// handler, if wired) can force a deterministic pass.
func (s *Supervisor) Sweep(ctx context.Context) {
	defer s.cycles.Add(1)
	// One fleet view per sweep: a reshard that flips mid-sweep retires
	// this fleet, and finishing the pass against the retired (intact)
	// state is harmless — the next sweep loads the new fleet.
	f := s.r.fl()
	var jobs []reseedJob
	for _, sh := range f.shards {
		rs, ok := sh.(*ReplicaSet)
		if !ok {
			continue
		}
		for j := range rs.replicas {
			if !rs.down[j].Load() {
				continue
			}
			sr, canSeed := rs.replicas[j].(SnapshotReceiver)
			if !canSeed {
				continue
			}
			// A plain probe first: a replica that merely reconnected with
			// no debt (or with a provable re-seed) rejoins without a
			// snapshot transfer.
			if ok, _ := rs.probeReplica(ctx, j); ok {
				rs.probes.success(j)
				continue
			}
			// Next cheapest: a stale replica that kept its state catches
			// up by replaying just the batches it missed. Only when that
			// is unsafe or fails does it join the snapshot jobs — so a
			// sweep where every needy replica delta-heals skips the
			// snapshot export entirely.
			if s.tryDeltaReplay(ctx, f, rs, j) {
				continue
			}
			jobs = append(jobs, reseedJob{rs: rs, j: j, sr: sr,
				gen: rs.fence(j), routerGen: f.debtGen[rs.idx].Load()})
		}
	}
	if len(jobs) > 0 {
		snapshot, err := s.sourceSnapshot(ctx, f)
		if err != nil {
			for _, job := range jobs {
				job.rs.reseeding[job.j].Store(false)
			}
			s.failures.Add(uint64(len(jobs)))
			s.lastErr.Store(fmt.Sprintf("snapshot export: %v", err))
			s.probeRouter(ctx, f)
			return
		}
		clean := true
		for _, job := range jobs {
			err := job.sr.Handoff(ctx, snapshot)
			if err != nil {
				job.rs.reseeding[job.j].Store(false)
				job.rs.down[job.j].Store(true)
				s.failures.Add(1)
				s.lastErr.Store(fmt.Sprintf("slot %d replica %d: handoff: %v", job.rs.idx, job.j, err))
				clean = false
				continue
			}
			job.rs.resetApplied(job.j)
			if p, ok := job.rs.replicas[job.j].(Pinger); ok {
				job.rs.refreshEpoch(ctx, job.j, p)
			}
			// Debt recorded since the capture postdates the snapshot: the
			// replica stays excluded and is reseeded again next sweep.
			job.rs.includeIfUnchanged(job.j, job.gen)
			job.rs.reseeding[job.j].Store(false)
			job.rs.seedGen.Add(1)
			// The slot now holds a replica provably reseeded with state at
			// least as fresh as the capture — clear the slot's ROUTER-level
			// debt under the same generation guard, so probeRouter can
			// re-include it. Without this, a slot whose epoch baseline was
			// first observed after this reseed (the router could not ping
			// while every replica was down) could never prove the re-seed.
			f.clearDebtIfUnchanged(job.rs.idx, job.routerGen)
			s.reseeds.Add(1)
		}
		if clean {
			s.lastErr.Store("")
		}
	}
	s.probeRouter(ctx, f)
}

// tryDeltaReplay heals a stale replica by replaying just the write
// batches it missed, when that is provably safe: the replica must
// implement Replayer, answer a Ping with the SAME boot epoch the set
// recorded before excluding it (an unchanged epoch proves the state the
// debt was counted against is still there — a blank or restarted
// replica fails this and needs a snapshot), and its countable debt must
// be within the delta threshold and still covered by the set's tail
// ring. Success clears debt under the usual generation guards and bumps
// the reseed generation, exactly like a snapshot handoff; failure
// records a delta failure and falls back to the snapshot path this same
// sweep.
func (s *Supervisor) tryDeltaReplay(ctx context.Context, f *fleet, rs *ReplicaSet, j int) bool {
	max := s.deltaMax.Load()
	if max <= 0 || !rs.missedWrite[j].Load() {
		return false
	}
	rp, canReplay := rs.replicas[j].(Replayer)
	p, canPing := rs.replicas[j].(Pinger)
	if !canReplay || !canPing {
		return false
	}
	gen := rs.debtGen[j].Load()
	routerGen := f.debtGen[rs.idx].Load()
	epoch, err := p.Ping(ctx)
	if err != nil || epoch == "" {
		return false
	}
	if known := rs.knownEpoch(j); known == "" || epoch != known {
		return false
	}
	ap, cur := rs.applied[j].Load(), rs.wseq.Load()
	if ap == 0 || cur <= ap || cur-ap > uint64(max) {
		return false
	}
	batches, ok := rs.deltaTail(ap, cur)
	if !ok {
		return false
	}
	rs.reseeding[j].Store(true)
	if err := rp.Replay(ctx, batches); err != nil {
		rs.reseeding[j].Store(false)
		rs.down[j].Store(true)
		s.deltaFailures.Add(1)
		s.lastErr.Store(fmt.Sprintf("slot %d replica %d: delta replay: %v", rs.idx, j, err))
		return false
	}
	rs.noteApplied(j, batches[len(batches)-1].Seq)
	// The replay minted a fresh boot epoch on the replica — record it so
	// the fail-closed probe rules see the proof-of-reseed signal.
	rs.refreshEpoch(ctx, j, p)
	// Debt recorded since the capture postdates the replayed tail: the
	// replica stays excluded and catches up again next sweep.
	rs.includeIfUnchanged(j, gen)
	rs.reseeding[j].Store(false)
	rs.seedGen.Add(1)
	f.clearDebtIfUnchanged(rs.idx, routerGen)
	s.deltaReseeds.Add(1)
	return true
}

// probeRouter lets slots whose replicas recovered rejoin the scatter set.
func (s *Supervisor) probeRouter(ctx context.Context, f *fleet) {
	for i := range f.down {
		if f.down[i].Load() {
			s.r.Probe(ctx)
			return
		}
	}
}

// sourceSnapshot exports one snapshot from any healthy provider — a
// shard snapshot carries the full replicated state, so one export seeds
// every needy replica of every slot this sweep. The export holds the
// router's write gate, so it lands between two write batches: exported
// mid-broadcast, it could already hold a batch another slot has not yet
// received, and a replica of that slot reseeded from it would then take
// the batch a second time from the broadcast.
func (s *Supervisor) sourceSnapshot(ctx context.Context, f *fleet) ([]byte, error) {
	s.r.reshardMu.Lock()
	defer s.r.reshardMu.Unlock()
	var firstErr error
	for i, sh := range f.shards {
		sp, ok := sh.(SnapshotProvider)
		if !ok {
			continue
		}
		if _, isSet := sh.(*ReplicaSet); !isSet {
			// A plain shard must be healthy and debt-free to be a source;
			// a ReplicaSet picks its own healthy replica internally.
			if f.down[i].Load() || f.missedWrite[i].Load() {
				continue
			}
		}
		data, err := sp.Snapshot(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.exports.Add(1)
		return data, nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, fmt.Errorf("%w: no healthy snapshot source in deployment", ErrShardUnavailable)
}
