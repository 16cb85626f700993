// replica_test.go unit-tests the ReplicaSet slot machinery and the
// reseed supervisor over stub replicas: read failover stays invisible to
// the Router (zero degraded results while any sibling survives), write
// debt excludes a replica until a snapshot re-seed proves recovery, reads
// load-balance by latency EWMA, and the supervisor's sweep turns the
// manual re-seed runbook into counters the stats surface reports.
package shard

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"ssrec/internal/core"
)

// Snapshot gives stubShard the SnapshotProvider surface the supervisor
// sources re-seeds from (stubs double as replicas in these tests).
func (s *stubShard) Snapshot(ctx context.Context) ([]byte, error) {
	if s.failing.Load() {
		return nil, errors.Join(ErrShardUnavailable, s.err("snapshot"))
	}
	s.snapshots.Add(1)
	return s.inner.Snapshot(ctx)
}

// replicaDeployment builds a 2-slot × 2-replica router where every
// replica is a stub over a real engine shard booted from the conformance
// snapshot. Stubs start reachable (pingOK) so probes behave like a
// healthy fleet.
func replicaDeployment(t *testing.T) (*Router, [][]*stubShard) {
	t.Helper()
	fx := fixture(t)
	const slots, reps = 2, 2
	stubs := make([][]*stubShard, slots)
	shards := make([]Shard, slots)
	for i := 0; i < slots; i++ {
		stubs[i] = make([]*stubShard, reps)
		members := make([]Shard, reps)
		for j := 0; j < reps; j++ {
			e, err := core.LoadShardFrom(bytes.NewReader(fx.Snapshot), i, slots)
			if err != nil {
				t.Fatalf("boot slot %d replica %d: %v", i, j, err)
			}
			stubs[i][j] = &stubShard{inner: NewLocal(i, e)}
			stubs[i][j].pingOK.Store(true)
			members[j] = stubs[i][j]
		}
		rs, err := NewReplicaSet(i, members...)
		if err != nil {
			t.Fatalf("replica set %d: %v", i, err)
		}
		shards[i] = rs
	}
	r, err := NewRouter(shards...)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	return r, stubs
}

func slotSet(t *testing.T, r *Router, i int) *ReplicaSet {
	t.Helper()
	rs, ok := r.fl().shards[i].(*ReplicaSet)
	if !ok {
		t.Fatalf("slot %d is %T, want *ReplicaSet", i, r.fl().shards[i])
	}
	return rs
}

// TestReplicaSetReadFailover: killing one replica of a slot is invisible
// at the Router — queries fail over to the sibling with NO degraded
// error and bit-identical results.
func TestReplicaSetReadFailover(t *testing.T) {
	fx := fixture(t)
	ctx := context.Background()
	healthy, _ := replicaDeployment(t)
	wounded, stubs := replicaDeployment(t)
	stubs[0][0].failing.Store(true)

	for i := 0; i < 4; i++ {
		want, err := healthy.RecommendCtx(ctx, fx.Queries[i], core.WithK(10))
		if err != nil {
			t.Fatalf("healthy query %d: %v", i, err)
		}
		got, err := wounded.RecommendCtx(ctx, fx.Queries[i], core.WithK(10))
		if err != nil {
			t.Fatalf("query %d with one replica down must not degrade, got %v", i, err)
		}
		if len(got.Recommendations) != len(want.Recommendations) {
			t.Fatalf("query %d: %d recs, want %d", i, len(got.Recommendations), len(want.Recommendations))
		}
		for k := range want.Recommendations {
			if got.Recommendations[k] != want.Recommendations[k] {
				t.Fatalf("query %d rec %d: %+v, want %+v (replica failover must be exact)",
					i, k, got.Recommendations[k], want.Recommendations[k])
			}
		}
	}
	rs := slotSet(t, wounded, 0)
	if !rs.isDown(0) {
		t.Fatal("failed replica not excluded")
	}
	states := rs.health()
	if states[0].State != "excluded" || states[1].State != "healthy" {
		t.Fatalf("health = %+v, want replica 0 excluded / replica 1 healthy", states)
	}
}

// TestReplicaSetReadFailoverCounter drives the set's Recommend directly
// (before any registration broadcast can pre-exclude the failing
// replica): the first failed attempt falls over to the sibling and the
// failover counter moves.
func TestReplicaSetReadFailoverCounter(t *testing.T) {
	fx := fixture(t)
	r, stubs := replicaDeployment(t)
	rs := slotSet(t, r, 0)
	stubs[0][0].failing.Store(true)

	o := core.ResolveOptions(core.WithK(10))
	res, _, err := rs.Recommend(context.Background(), fx.Queries[0], o, nil)
	if err != nil {
		t.Fatalf("failover read: %v", err)
	}
	if len(res.Recommendations) == 0 {
		t.Fatal("failover read returned nothing")
	}
	if rs.failovers.Load() == 0 {
		t.Fatal("failover counter never moved")
	}
	if !rs.isDown(0) {
		t.Fatal("failed replica not excluded by the read path")
	}
}

// TestReplicaSetWriteDebtAndHandoffRejoin: a replica that misses a
// state-advancing batch records missed-write debt, a plain reconnect
// cannot re-include it (fail closed), and a snapshot handoff both clears
// the debt and bumps the slot's reseed generation (the Router's re-seed
// proof).
func TestReplicaSetWriteDebtAndHandoffRejoin(t *testing.T) {
	fx := fixture(t)
	ctx := context.Background()
	r, stubs := replicaDeployment(t)
	rs := slotSet(t, r, 0)

	stubs[0][1].failing.Store(true)
	if _, err := r.ObserveBatch(ctx, fx.Obs[:64]); err != nil {
		t.Fatalf("write with a surviving sibling must not degrade: %v", err)
	}
	if !rs.owes(1) || !rs.isDown(1) {
		t.Fatal("failed replica owes no missed-write debt")
	}
	if rs.health()[1].MissedWrite != true {
		t.Fatal("health does not surface the debt")
	}

	// Reconnect WITHOUT a re-seed: the probe must refuse (the first probe
	// records the epoch baseline, the second sees it unchanged).
	stubs[0][1].failing.Store(false)
	for i := 0; i < 2; i++ {
		if ok, _ := rs.probe(ctx, 1); ok {
			t.Fatalf("probe %d re-included a debtor without epoch proof", i)
		}
	}
	if !rs.isDown(1) {
		t.Fatal("debtor rejoined without re-seed")
	}

	// Snapshot handoff: the stub bumps its epoch (a re-seed) — debt clears,
	// the replica rejoins, and the slot's reseed generation advances.
	genBefore := rs.seedGen.Load()
	if err := rs.Handoff(ctx, fx.Snapshot); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if rs.owes(1) || rs.isDown(1) {
		t.Fatal("handoff did not re-include the debtor")
	}
	if rs.seedGen.Load() != genBefore+1 {
		t.Fatalf("seedGen = %d, want %d (slot epoch must change on re-seed)", rs.seedGen.Load(), genBefore+1)
	}

	// The rejoined replica serves writes again.
	before := stubs[0][1].calls.Load()
	if _, err := r.ObserveBatch(ctx, fx.Obs[64:128]); err != nil {
		t.Fatalf("post-rejoin write: %v", err)
	}
	if stubs[0][1].calls.Load() == before {
		t.Fatal("rejoined replica received no traffic")
	}
}

// TestReplicaSetEWMAOrdering: reads prefer the fastest replica by EWMA,
// unsampled replicas are measured first, and the periodic exploration
// rotation keeps the runner-up's EWMA live.
func TestReplicaSetEWMAOrdering(t *testing.T) {
	r, _ := replicaDeployment(t)
	rs := slotSet(t, r, 0)

	// Unsampled first: replica 1 has no sample yet, so it leads.
	rs.observeLatency(0, 5*time.Millisecond)
	if order := rs.readOrder(); order[0] != 1 {
		t.Fatalf("readOrder = %v, want unsampled replica 1 first", order)
	}

	// Both sampled: the faster EWMA leads.
	rs.observeLatency(1, 20*time.Millisecond)
	if order := rs.readOrder(); order[0] != 0 {
		t.Fatalf("readOrder = %v, want faster replica 0 first", order)
	}

	// Exploration: across explorePeriod calls at least one rotates the
	// winner to the back.
	rotated := false
	for i := 0; i < explorePeriod+1; i++ {
		if rs.readOrder()[0] != 0 {
			rotated = true
		}
	}
	if !rotated {
		t.Fatalf("no exploration rotation in %d reads", explorePeriod+1)
	}

	// A new sample folds in as an EWMA, not a replacement.
	rs.observeLatency(0, 105*time.Millisecond)
	got := rs.health()[0].LatencyEWMAMs
	want := 5.0*(1-ewmaAlpha) + 105.0*ewmaAlpha
	if got < want-1 || got > want+1 {
		t.Fatalf("EWMA after 5ms,105ms = %.2fms, want ≈%.2fms", got, want)
	}
}

// TestReplicaSetAllReplicasDown: with every replica of a slot gone the
// Router serves a typed degraded partial (no hang), and the slot rejoins
// as soon as ANY replica returns.
func TestReplicaSetAllReplicasDown(t *testing.T) {
	fx := fixture(t)
	ctx := context.Background()
	r, stubs := replicaDeployment(t)
	stubs[1][0].failing.Store(true)
	stubs[1][0].pingOK.Store(false)
	stubs[1][1].failing.Store(true)
	stubs[1][1].pingOK.Store(false)

	res, err := r.RecommendCtx(ctx, fx.Queries[0], core.WithK(10))
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("all-replicas-down err = %v, want ErrShardUnavailable", err)
	}
	if len(res.Recommendations) == 0 {
		t.Fatal("no partial results from the surviving slot")
	}
	if down := r.Down(); len(down) != 1 || down[0] != 1 {
		t.Fatalf("Down() = %v, want [1]", down)
	}

	// One replica returns. The query's registration prologue was itself a
	// replicated write the whole slot missed, so a bare probe must REFUSE
	// re-inclusion (fail closed — the returned replica is stale)...
	stubs[1][1].failing.Store(false)
	stubs[1][1].pingOK.Store(true)
	r.Probe(ctx) // records the slot's epoch baseline, must not re-include
	if up := r.Probe(ctx); len(up) != 0 {
		t.Fatalf("probe re-included stale slot %v without a re-seed", up)
	}

	// ...and the supervisor's sweep re-seeds it from the healthy slot,
	// after which the slot rejoins and queries stop degrading.
	sup := NewSupervisor(r, time.Hour)
	for i := 0; i < 4 && len(r.Down()) > 0; i++ {
		sup.Sweep(ctx)
	}
	if down := r.Down(); len(down) != 0 {
		t.Fatalf("slot never rejoined after supervisor sweeps, Down() = %v", down)
	}
	if sup.Stats().Reseeds == 0 {
		t.Fatal("recovery happened without a recorded reseed")
	}
	if _, err := r.RecommendCtx(ctx, fx.Queries[1], core.WithK(10)); err != nil {
		t.Fatalf("post-recovery query still degraded: %v", err)
	}
}

// TestSupervisorSweepReseedsStaleReplica: a reachable-but-stale replica
// (missed-write debt, unchanged epoch) cannot rejoin on probes alone; one
// supervisor sweep re-seeds it from the healthy sibling and it rejoins.
func TestSupervisorSweepReseedsStaleReplica(t *testing.T) {
	fx := fixture(t)
	ctx := context.Background()
	r, stubs := replicaDeployment(t)
	rs := slotSet(t, r, 0)

	stubs[0][1].failing.Store(true)
	if _, err := r.ObserveBatch(ctx, fx.Obs[:64]); err != nil {
		t.Fatalf("write: %v", err)
	}
	stubs[0][1].failing.Store(false) // reachable again, but stale

	sup := NewSupervisor(r, time.Hour) // loop never started; sweeps are driven here
	if _, ok := r.SupervisorStats(); !ok {
		t.Fatal("supervisor not attached to router stats")
	}
	// Sweep 1 records the epoch baseline (fail closed) and re-seeds.
	sup.Sweep(ctx)
	if rs.isDown(1) || rs.owes(1) {
		// The first probe inside the sweep may only establish the baseline;
		// one more sweep must finish the re-seed.
		sup.Sweep(ctx)
	}
	if rs.isDown(1) || rs.owes(1) {
		t.Fatal("supervisor did not re-seed the stale replica")
	}
	st := sup.Stats()
	if st.Reseeds == 0 {
		t.Fatalf("stats = %+v, want Reseeds > 0", st)
	}
	if st.ReseedFailures != 0 || st.LastError != "" {
		t.Fatalf("clean reseed reported failures: %+v", st)
	}
	if stubs[0][1].handoffs.Load() == 0 {
		t.Fatal("stale replica never received a snapshot")
	}
}

// TestSupervisorNeverSourcesFromSlotInRouterDebt: a slot the Router holds
// in missed-write debt is never a snapshot source, even once its replicas
// look healthy to their own set — they all lack the batch the whole slot
// missed. The sweep sources from a healthy slot instead and re-seeds every
// replica of the indebted slot, which then rejoins the Router.
func TestSupervisorNeverSourcesFromSlotInRouterDebt(t *testing.T) {
	fx := fixture(t)
	ctx := context.Background()
	r, stubs := replicaDeployment(t)

	// Both replicas of slot 0 fail a read: the set excludes them without
	// debt (reads mutate nothing), and the Router excludes slot 0.
	for _, s := range stubs[0] {
		s.failing.Store(true)
		s.pingOK.Store(false)
	}
	o := core.ResolveOptions(core.WithK(5))
	if _, err := r.recommendOne(ctx, fx.Queries[0], o, true); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("read with slot 0 down: %v", err)
	}
	if down := r.Down(); len(down) != 1 || down[0] != 0 {
		t.Fatalf("Down() = %v, want [0]", down)
	}

	// Batch B lands while slot 0 is out (Router-level debt); replica 1 of
	// slot 1 misses it too (set-level debt).
	stubs[1][1].failing.Store(true)
	if _, err := r.ObserveBatch(ctx, fx.Obs[:64]); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("batch B: %v", err)
	}
	for _, s := range append(stubs[0], stubs[1][1]) {
		s.failing.Store(false)
		s.pingOK.Store(true)
	}

	sup := NewSupervisor(r, time.Hour)
	sup.Sweep(ctx)
	for j, s := range stubs[0] {
		if n := s.snapshots.Load(); n != 0 {
			t.Fatalf("slot 0 replica %d exported %d snapshot(s) while slot 0 owed batch B", j, n)
		}
		if s.handoffs.Load() == 0 {
			t.Fatalf("slot 0 replica %d was never re-seeded", j)
		}
	}
	if stubs[1][0].snapshots.Load() != 1 {
		t.Fatalf("slot 1 replica 0 exported %d snapshots, want the sweep's one", stubs[1][0].snapshots.Load())
	}
	if down := r.Down(); len(down) != 0 {
		t.Fatalf("Down() = %v after the sweep, want []", down)
	}
	for _, h := range r.ReplicaHealth() {
		if h.State != "healthy" || h.MissedWrite {
			t.Fatalf("replica %d/%d = %+v after the sweep, want healthy", h.Slot, h.Replica, h)
		}
	}
}

// TestRouterProbeRefusesSlotAfterReplicaReseed: re-seeding one replica of
// a serving slot must not move the slot epoch the Router holds as its
// baseline. Otherwise, once the whole slot later misses a batch, that
// earlier reseed passes as proof of a slot re-seed and a probe
// re-includes replicas that never received the batch.
func TestRouterProbeRefusesSlotAfterReplicaReseed(t *testing.T) {
	fx := fixture(t)
	ctx := context.Background()
	r, stubs := replicaDeployment(t)
	if err := r.HandoffSnapshot(ctx, fx.Snapshot); err != nil { // slot baselines rs-1
		t.Fatal(err)
	}

	// Replica 1 of slot 0 misses a write and the supervisor re-seeds it
	// while slot 0 keeps serving.
	stubs[0][1].failing.Store(true)
	if _, err := r.ObserveBatch(ctx, fx.Obs[:64]); err != nil {
		t.Fatalf("write with a surviving sibling: %v", err)
	}
	stubs[0][1].failing.Store(false)
	sup := NewSupervisor(r, time.Hour)
	sup.Sweep(ctx)
	if sup.Stats().Reseeds == 0 || len(slotSet(t, r, 0).downList()) != 0 {
		t.Fatalf("replica reseed did not heal slot 0: %+v", r.ReplicaHealth())
	}

	// Now the whole slot misses batch B: both replicas fail a read (no
	// set-level debt) and B lands while the Router excludes slot 0.
	for _, s := range stubs[0] {
		s.failing.Store(true)
		s.pingOK.Store(false)
	}
	if _, err := r.recommendOne(ctx, fx.Queries[0], core.ResolveOptions(core.WithK(5)), true); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("read with slot 0 down: %v", err)
	}
	if _, err := r.ObserveBatch(ctx, fx.Obs[64:128]); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("batch B: %v", err)
	}
	for _, s := range stubs[0] {
		s.failing.Store(false)
		s.pingOK.Store(true)
	}
	if up := r.Probe(ctx); len(up) != 0 {
		t.Fatalf("Probe = %v, want refusal (slot 0 was not re-seeded since batch B)", up)
	}
	sup.Sweep(ctx)
	if down := r.Down(); len(down) != 0 {
		t.Fatalf("Down() = %v after a re-seeding sweep, want []", down)
	}
}

// TestSupervisorSweepCountsFailures: while the needy replica is
// unreachable the sweep's handoff fails and is counted; once it returns
// the next sweep succeeds and clears the error.
func TestSupervisorSweepCountsFailures(t *testing.T) {
	fx := fixture(t)
	ctx := context.Background()
	r, stubs := replicaDeployment(t)
	rs := slotSet(t, r, 0)

	stubs[0][1].failing.Store(true)
	stubs[0][1].pingOK.Store(false)
	if _, err := r.ObserveBatch(ctx, fx.Obs[:64]); err != nil {
		t.Fatalf("write: %v", err)
	}

	sup := NewSupervisor(r, time.Hour)
	sup.Sweep(ctx)
	st := sup.Stats()
	if st.ReseedFailures == 0 || st.LastError == "" {
		t.Fatalf("unreachable replica produced no failure: %+v", st)
	}
	if !rs.isDown(1) {
		t.Fatal("failed handoff re-included the replica")
	}

	stubs[0][1].failing.Store(false)
	stubs[0][1].pingOK.Store(true)
	sup.Sweep(ctx)
	if rs.isDown(1) || rs.owes(1) {
		sup.Sweep(ctx) // baseline-then-prove may need one more pass
	}
	if rs.isDown(1) || rs.owes(1) {
		t.Fatal("recovered replica never re-seeded")
	}
	st = sup.Stats()
	if st.Reseeds == 0 {
		t.Fatalf("stats = %+v, want a successful reseed", st)
	}
	if st.LastError != "" {
		t.Fatalf("clean sweep left LastError = %q", st.LastError)
	}
}

// TestSupervisorStartStop: the background loop runs sweeps on its own and
// Stop is idempotent.
func TestSupervisorStartStop(t *testing.T) {
	r, _ := replicaDeployment(t)
	sup := r.StartSupervisor(5 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for sup.Stats().Cycles == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no sweep cycles after 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sup.Stop()
	sup.Stop() // idempotent
	if st := sup.Stats(); st.Running {
		t.Fatalf("stopped supervisor still reports running: %+v", st)
	}
}
