// supervisor.go is the replica supervisor: a background loop that turns
// the manual OPERATIONS.md re-seed runbook into machinery. Each sweep it
// finds replicas that cannot rejoin on their own — blank (restarted,
// awaiting a snapshot) or stale (excluded with missed-write debt, which
// the fail-closed probe rules refuse to re-include) — and heals them by
// the cheapest safe mode. A stale replica that provably kept its state
// (unchanged boot epoch) and whose countable debt is small is healed by
// DELTA REPLAY: just the missed write batches stream to it from the
// set's in-memory tail ring. Everything else gets a snapshot: the sweep
// exports ONE from any healthy replica of any healthy slot (a shard
// snapshot carries the full replicated state, so every slot boots from
// the same bytes) and hands it to each needy replica under the generation
// guard — and skips the export entirely when delta replay healed every
// needy replica. A slot the Router holds in missed-write debt missed
// batches its set never saw, so every one of its replicas is needy and
// only a snapshot heals them; re-seeding such a slot's replica re-seeds
// the slot at Router level too. A final Router.Probe lets recovered slots
// rejoin the scatter set.
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

// reseedJob is one replica owed a snapshot, with its debt generation
// captured by the fence BEFORE the snapshot export: debt recorded after
// the capture postdates the snapshot and must survive the reseed (the
// replica is retried next sweep with a fresher snapshot). slotOwes marks
// a slot in Router-level debt, whose reseed is guarded at that level by
// routerGen, captured at the same point.
type reseedJob struct {
	rs        *ReplicaSet
	j         int
	sr        SnapshotReceiver
	gen       uint64
	slotOwes  bool
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
	for i, sh := range f.shards {
		rs, ok := sh.(*ReplicaSet)
		if !ok {
			continue
		}
		slotOwes, routerGen := f.owes(i), f.claim(i)
		for j := range rs.shards {
			if slotOwes {
				// Every replica lacks the batches the slot missed.
				rs.recordDebt(j)
			} else if !rs.isDown(j) {
				continue
			}
			sr, canSeed := rs.shards[j].(SnapshotReceiver)
			if !canSeed {
				continue
			}
			// A plain probe first: a replica that merely reconnected with
			// no debt (or with a provable re-seed) rejoins without a
			// snapshot transfer. Next cheapest: a stale replica that kept
			// its state catches up by replaying just the batches it
			// missed. Only when both are unsafe or fail does it join the
			// snapshot jobs — so a sweep where every needy replica
			// delta-heals skips the snapshot export entirely.
			if !slotOwes {
				if ok, _ := rs.probe(ctx, j); ok || s.tryDeltaReplay(ctx, rs, j) {
					continue
				}
			}
			jobs = append(jobs, reseedJob{rs: rs, j: j, sr: sr, gen: rs.fence(j),
				slotOwes: slotOwes, routerGen: routerGen})
		}
	}
	if len(jobs) > 0 {
		snapshot, err := s.sourceSnapshot(ctx, f)
		if err != nil {
			for _, job := range jobs {
				job.rs.unfence(job.j)
			}
			s.failures.Add(uint64(len(jobs)))
			s.lastErr.Store(fmt.Sprintf("snapshot export: %v", err))
			s.probeRouter(ctx, f)
			return
		}
		clean := true
		for _, job := range jobs {
			if err := s.reseed(ctx, f, job, snapshot); err != nil {
				s.failures.Add(1)
				s.lastErr.Store(fmt.Sprintf("slot %d replica %d: handoff: %v", job.rs.idx, job.j, err))
				clean = false
				continue
			}
			s.reseeds.Add(1)
		}
		if clean {
			s.lastErr.Store("")
		}
	}
	s.probeRouter(ctx, f)
}

// reseed hands the snapshot to one job's replica. In a slot the Router
// holds in debt the replica's reseed is the push of a Router-level reseed
// of the slot: the slot's epoch advances while the Router refuses to
// probe it, the Router records the new epoch as its baseline, and the
// slot rejoins unless Router-level debt postdates the export.
func (s *Supervisor) reseed(ctx context.Context, f *fleet, job reseedJob, snapshot []byte) error {
	rs := job.rs
	push := func() error { return rs.reseed(ctx, job.j, job.gen, rs.handoff(ctx, job.j, job.sr, snapshot)) }
	if !job.slotOwes {
		return push()
	}
	return f.reseed(ctx, rs.idx, job.routerGen, func() error {
		if err := push(); err != nil {
			return err
		}
		rs.seedGen.Add(1)
		return nil
	})
}

// tryDeltaReplay heals a stale replica by replaying just the write
// batches it missed, when that is provably safe: the replica must
// implement Replayer, answer a Ping with the SAME boot epoch the set
// recorded before excluding it (an unchanged epoch proves the state the
// debt was counted against is still there — a blank or restarted
// replica fails this and needs a snapshot), and its countable debt must
// be within the delta threshold and still covered by the set's tail
// ring. Success clears debt under the usual generation guard, exactly
// like a snapshot reseed; failure records a delta failure and falls back
// to the snapshot path this same sweep. The ring holds only batches the
// set saw, so a slot in Router-level debt never delta-heals.
func (s *Supervisor) tryDeltaReplay(ctx context.Context, rs *ReplicaSet, j int) bool {
	max := s.deltaMax.Load()
	if max <= 0 || !rs.owes(j) {
		return false
	}
	rp, canReplay := rs.shards[j].(Replayer)
	p, canPing := rs.shards[j].(Pinger)
	if !canReplay || !canPing {
		return false
	}
	gen := rs.claim(j)
	epoch, err := p.Ping(ctx)
	if err != nil || epoch == "" {
		return false
	}
	if known := rs.baseline(j); known == "" || epoch != known {
		return false
	}
	ap, cur := rs.appliedSeq(j), rs.wseq.Load()
	if ap == 0 || cur <= ap || cur-ap > uint64(max) {
		return false
	}
	batches, ok := rs.deltaTail(ap, cur)
	if !ok {
		return false
	}
	err = rs.reseed(ctx, j, gen, func() error {
		if err := rp.Replay(ctx, batches); err != nil {
			return err
		}
		rs.noteApplied(j, batches[len(batches)-1].Seq)
		return nil
	})
	if err != nil {
		s.deltaFailures.Add(1)
		s.lastErr.Store(fmt.Sprintf("slot %d replica %d: delta replay: %v", rs.idx, j, err))
		return false
	}
	s.deltaReseeds.Add(1)
	return true
}

// probeRouter lets slots whose replicas recovered rejoin the scatter set.
func (s *Supervisor) probeRouter(ctx context.Context, f *fleet) {
	if len(f.downList()) > 0 {
		s.r.Probe(ctx)
	}
}

// sourceSnapshot exports one snapshot from the fleet's snapshot source —
// a shard snapshot carries the full replicated state, so one export
// seeds every needy replica of every slot this sweep. The export holds
// the router's write gate, so it lands between two write batches:
// exported mid-broadcast, it could already hold a batch another slot has
// not yet received, and a replica of that slot reseeded from it would
// then take the batch a second time from the broadcast.
func (s *Supervisor) sourceSnapshot(ctx context.Context, f *fleet) ([]byte, error) {
	s.r.reshardMu.Lock()
	defer s.r.reshardMu.Unlock()
	data, err := f.snapshotSource(ctx)
	if err == nil {
		s.exports.Add(1)
	}
	return data, err
}
