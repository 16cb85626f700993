// surface_test.go pins the administrative surface of the deployment
// types: the Local accessors and delta-replay driver, the replicated
// in-process bootstrap (one training fanned out to every replica), the
// parallelism setting that must reach replicated engine grids, and the
// snapshot-source selection rules shared by the supervisor and the
// replica sets.
package shard

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
)

// TestLocalAccessorsAndReplay covers the Local administrative surface:
// the wrapped-engine accessor and the delta catch-up driver applying
// registration and observation batches in sequence order, refusing work
// under a cancelled context.
func TestLocalAccessorsAndReplay(t *testing.T) {
	fx := fixture(t)
	e, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	l := NewLocal(0, e)
	if l.Engine() != e {
		t.Fatal("Engine() did not return the wrapped engine")
	}

	fresh := fx.Queries[0]
	fresh.ID = "replay-fresh-item"
	fresh.Timestamp++
	batches := []ReplayBatch{
		{Seq: 1, Items: []model.Item{fresh}},
		{Seq: 2, Obs: fx.Obs[:8]},
	}
	if err := l.Replay(context.Background(), batches); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	res, err := e.RecommendBatch(context.Background(), []model.Item{fresh}, core.WithK(3))
	if err != nil || len(res) != 1 {
		t.Fatalf("query after replay: %v (%d results)", err, len(res))
	}

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Replay(cctx, []ReplayBatch{{Seq: 3, Items: []model.Item{fresh}}}); err == nil {
		t.Fatal("Replay under a cancelled context succeeded")
	}
}

// TestReplicatedTrainAndMaintenanceFanout boots an n-slot × rep-replica
// in-process deployment, trains it ONCE (slot 0 replica 0 trains, every
// other replica boots from its snapshot) and checks the replicated
// surface: replication factor, slot-major health, and an answer from the
// grid.
func TestReplicatedTrainAndMaintenanceFanout(t *testing.T) {
	tf := dsConfig(t)
	r, err := Open(Topology{Slots: 2, Replicas: 2, Member: Engines(tf.engineCfg)})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r.Train(tf.items, tf.irs, tf.resolve); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if got := r.Replicas(); got != 2 {
		t.Fatalf("Replicas() = %d, want 2", got)
	}
	hs := r.ReplicaHealth()
	if len(hs) != 4 {
		t.Fatalf("ReplicaHealth() returned %d entries, want 4", len(hs))
	}
	for _, h := range hs {
		if h.State != "healthy" {
			t.Fatalf("replica %d/%d state %q after training, want healthy", h.Slot, h.Replica, h.State)
		}
	}

	res, err := r.RecommendCtx(context.Background(), tf.query, core.WithK(5))
	if err != nil {
		t.Fatalf("RecommendCtx: %v", err)
	}
	if len(res.Recommendations) == 0 {
		t.Fatal("no recommendations from the replicated deployment")
	}
}

// TestReplicaHealthPlainShards checks the pseudo-replica rows reported
// for an unreplicated deployment, including the excluded state of a
// down slot.
func TestReplicaHealthPlainShards(t *testing.T) {
	fx := fixture(t)
	r, err := boot(fx.Snapshot, 2, 1)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	hs := r.ReplicaHealth()
	if len(hs) != 2 || hs[0].State != "healthy" || hs[1].State != "healthy" {
		t.Fatalf("fresh deployment health %+v, want 2 healthy pseudo-replicas", hs)
	}
	r.fl().exclude(0)
	hs = r.ReplicaHealth()
	if hs[0].State != "excluded" || hs[1].State != "healthy" {
		t.Fatalf("health with slot 0 down %+v, want [excluded healthy]", hs)
	}
}

// TestReplicaSetConstructionAndSources covers the replica-set refusal
// and source-selection branches: empty sets and slot mismatches are
// rejected, a receiver-less set reports handoff success without a seed
// generation bump, and Snapshot skips excluded replicas / surfaces the
// first provider error.
func TestReplicaSetConstructionAndSources(t *testing.T) {
	fx := fixture(t)
	e, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	ctx := context.Background()

	if _, err := NewReplicaSet(0); err == nil {
		t.Fatal("empty replica set accepted")
	}
	if _, err := NewReplicaSet(0, NewLocal(1, e)); err == nil {
		t.Fatal("slot-mismatched replica accepted")
	}

	rs, err := NewReplicaSet(0, NewLocal(0, e))
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if got := rs.Replicas(); got != 1 {
		t.Fatalf("Replicas() = %d, want 1", got)
	}
	rs.SetProbeInterval(0) // clamps to the default
	rs.SetProbeInterval(time.Second)
	// An in-process replica cannot receive a pushed snapshot: the slot
	// handoff is a success without bumping the seed generation.
	gen := rs.seedGen.Load()
	if err := rs.Handoff(ctx, fx.Snapshot); err != nil {
		t.Fatalf("receiver-less Handoff: %v", err)
	}
	if got := rs.seedGen.Load(); got != gen {
		t.Fatalf("receiver-less handoff bumped seed generation %d -> %d", gen, got)
	}

	stub := &stubShard{inner: NewLocal(0, e)}
	stub.failing.Store(true)
	rs2, err := NewReplicaSet(0, stub)
	if err != nil {
		t.Fatalf("NewReplicaSet(stub): %v", err)
	}
	if _, err := rs2.Snapshot(ctx); err == nil {
		t.Fatal("Snapshot from a failing provider succeeded")
	}
	if err := rs2.Handoff(ctx, fx.Snapshot); err == nil {
		t.Fatal("Handoff with zero accepting replicas succeeded")
	}
	rs2.exclude(0)
	if _, err := rs2.Snapshot(ctx); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("Snapshot with every replica excluded: err = %v, want ErrShardUnavailable", err)
	}
}

// TestSupervisorSourceSnapshotSelection checks the supervisor's re-seed
// source rules on plain shards: a healthy provider exports (and counts),
// a failing provider surfaces its error, and an excluded provider is
// skipped until no source remains.
func TestSupervisorSourceSnapshotSelection(t *testing.T) {
	fx := fixture(t)
	e, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	ctx := context.Background()
	stub := &stubShard{inner: NewLocal(0, e)}
	r := newRouter([]Shard{stub, &noHandoffShard{idx: 1}})
	s := NewSupervisor(r, 0)
	f := r.fl()

	data, err := s.sourceSnapshot(ctx, f)
	if err != nil || len(data) == 0 {
		t.Fatalf("healthy source: %v (%d bytes)", err, len(data))
	}
	if got := s.exports.Load(); got != 1 {
		t.Fatalf("exports counter %d after one export, want 1", got)
	}

	stub.failing.Store(true)
	if _, err := s.sourceSnapshot(ctx, f); err == nil {
		t.Fatal("failing source succeeded")
	}
	stub.failing.Store(false)
	f.exclude(0)
	if _, err := s.sourceSnapshot(ctx, f); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("excluded source: err = %v, want ErrShardUnavailable", err)
	}
}
