// delta_test.go unit-tests the supervisor's delta-replay reseed mode over
// stub replicas: a stale replica with small countable debt and an
// unchanged boot epoch is healed by replaying just its missed batches
// (no snapshot export at all), debt above the threshold or a failed
// replay falls back to the snapshot path, and the counters /v2/stats
// surfaces move accordingly.
package shard

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssrec/internal/core"
)

// replayStub is a stubShard that also implements Replayer, recording the
// sequences it was asked to catch up on. A successful replay bumps the
// stub epoch — the proof-of-reseed signal the RPC handler mints.
type replayStub struct {
	*stubShard
	failReplay atomic.Bool
	replays    atomic.Int64

	mu           sync.Mutex
	replayedSeqs []uint64
}

func (s *replayStub) Replay(ctx context.Context, batches []ReplayBatch) error {
	if s.failReplay.Load() || s.failing.Load() {
		return errors.Join(ErrShardUnavailable, errors.New("stub replay refused"))
	}
	for _, b := range batches {
		if len(b.Items) > 0 {
			if _, err := s.inner.RegisterItems(ctx, b.Items); err != nil {
				return err
			}
		}
		if len(b.Obs) > 0 {
			if _, err := s.inner.ObserveBatch(ctx, b.Obs); err != nil {
				return err
			}
		}
		s.mu.Lock()
		s.replayedSeqs = append(s.replayedSeqs, b.Seq)
		s.mu.Unlock()
	}
	s.replays.Add(1)
	s.epoch.Add(1)
	return nil
}

func (s *replayStub) seqs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.replayedSeqs...)
}

// replayDeployment mirrors replicaDeployment with replay-capable stubs.
func replayDeployment(t *testing.T) (*Router, [][]*replayStub) {
	t.Helper()
	fx := fixture(t)
	const slots, reps = 2, 2
	stubs := make([][]*replayStub, slots)
	shards := make([]Shard, slots)
	for i := 0; i < slots; i++ {
		stubs[i] = make([]*replayStub, reps)
		members := make([]Shard, reps)
		for j := 0; j < reps; j++ {
			e, err := core.LoadShardFrom(bytes.NewReader(fx.Snapshot), i, slots)
			if err != nil {
				t.Fatalf("boot slot %d replica %d: %v", i, j, err)
			}
			stubs[i][j] = &replayStub{stubShard: &stubShard{inner: NewLocal(i, e)}}
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

// wedgeDebt makes replica [0][1] miss nBatches write batches (its state
// and epoch intact) and returns after restoring it to reachable-but-stale.
func wedgeDebt(t *testing.T, r *Router, stubs [][]*replayStub, nBatches int) {
	t.Helper()
	fx := fixture(t)
	ctx := context.Background()
	// One healthy write first, so the set has an applied baseline for the
	// stale replica (delta replay refuses an unknown baseline).
	if _, err := r.ObserveBatch(ctx, fx.Obs[:64]); err != nil {
		t.Fatalf("baseline write: %v", err)
	}
	stubs[0][1].failing.Store(true)
	for i := 0; i < nBatches; i++ {
		lo := 64 * (i + 1)
		if _, err := r.ObserveBatch(ctx, fx.Obs[lo:lo+64]); err != nil {
			t.Fatalf("missed write %d: %v", i, err)
		}
	}
	stubs[0][1].failing.Store(false)
}

// TestSupervisorDeltaReplayHealsSmallDebt: small countable debt with the
// boot epoch unchanged is healed by streaming exactly the missed batch
// sequences — no snapshot export, no snapshot handoff.
func TestSupervisorDeltaReplayHealsSmallDebt(t *testing.T) {
	ctx := context.Background()
	r, stubs := replayDeployment(t)
	rs := slotSet(t, r, 0)
	wedgeDebt(t, r, stubs, 2)

	sup := NewSupervisor(r, time.Hour)
	sup.Sweep(ctx)

	if rs.isDown(1) || rs.owes(1) {
		t.Fatalf("stale replica not healed: down=%v debt=%v", rs.isDown(1), rs.owes(1))
	}
	st := sup.Stats()
	if st.DeltaReseeds != 1 || st.DeltaReseedFailures != 0 {
		t.Fatalf("stats = %+v, want exactly one clean delta reseed", st)
	}
	if st.Reseeds != 0 || st.SnapshotExports != 0 {
		t.Fatalf("stats = %+v, want zero snapshot reseeds/exports when delta replay heals everything", st)
	}
	if got := stubs[0][1].replays.Load(); got != 1 {
		t.Fatalf("replica saw %d replay calls, want 1", got)
	}
	if got := stubs[0][1].seqs(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("replayed sequences = %v, want [2 3] (exactly the missed batches)", got)
	}
	if got := stubs[0][1].handoffs.Load(); got != 0 {
		t.Fatalf("delta-healed replica received %d snapshot handoffs, want 0", got)
	}
	if ap, cur := rs.appliedSeq(1), rs.wseq.Load(); ap != cur {
		t.Fatalf("applied watermark %d after replay, want %d", ap, cur)
	}
}

// TestSupervisorDeltaReplayRespectsThreshold: debt above DeltaReplayMax
// is not delta-healed — the sweep falls back to a snapshot handoff and
// the applied watermark resets to unknown (snapshot coverage is
// unknowable).
func TestSupervisorDeltaReplayRespectsThreshold(t *testing.T) {
	ctx := context.Background()
	r, stubs := replayDeployment(t)
	rs := slotSet(t, r, 0)
	wedgeDebt(t, r, stubs, 2)

	sup := NewSupervisor(r, time.Hour)
	sup.SetDeltaReplayMax(1) // debt is 2
	sup.Sweep(ctx)

	if rs.isDown(1) || rs.owes(1) {
		t.Fatalf("stale replica not healed: down=%v debt=%v", rs.isDown(1), rs.owes(1))
	}
	st := sup.Stats()
	if st.DeltaReseeds != 0 {
		t.Fatalf("stats = %+v, want zero delta reseeds above the threshold", st)
	}
	if st.Reseeds != 1 || st.SnapshotExports != 1 {
		t.Fatalf("stats = %+v, want one snapshot reseed from one export", st)
	}
	if got := stubs[0][1].replays.Load(); got != 0 {
		t.Fatalf("replica saw %d replay calls, want 0", got)
	}
	if got := stubs[0][1].handoffs.Load(); got == 0 {
		t.Fatal("replica above the delta threshold never received a snapshot")
	}
	if ap := rs.appliedSeq(1); ap != 0 {
		t.Fatalf("applied watermark %d after snapshot reseed, want 0 (unknown)", ap)
	}
}

// TestSupervisorDeltaReplayFailureFallsBack: a failed replay is counted
// and the replica is snapshot-reseeded in the SAME sweep.
func TestSupervisorDeltaReplayFailureFallsBack(t *testing.T) {
	ctx := context.Background()
	r, stubs := replayDeployment(t)
	rs := slotSet(t, r, 0)
	wedgeDebt(t, r, stubs, 2)
	stubs[0][1].failReplay.Store(true)

	sup := NewSupervisor(r, time.Hour)
	sup.Sweep(ctx)

	if rs.isDown(1) || rs.owes(1) {
		t.Fatalf("stale replica not healed: down=%v debt=%v", rs.isDown(1), rs.owes(1))
	}
	st := sup.Stats()
	if st.DeltaReseedFailures != 1 || st.DeltaReseeds != 0 {
		t.Fatalf("stats = %+v, want one delta failure and no delta reseed", st)
	}
	if st.Reseeds != 1 || st.SnapshotExports != 1 {
		t.Fatalf("stats = %+v, want the snapshot path to heal the replica the same sweep", st)
	}
	if got := stubs[0][1].handoffs.Load(); got == 0 {
		t.Fatal("replica never received the fallback snapshot")
	}
}
