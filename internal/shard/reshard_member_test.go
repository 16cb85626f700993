// reshard_member_test.go exercises the member-seeded half of the online
// split/merge protocol in-process: a real engine-backed member that is
// handed the watermark snapshot and caught up from the mirror ring — the
// same sequence the remote shardrpc suite drives over HTTP — plus the
// snapshot-export refusal paths that abort a reshard before any new
// fleet exists.
package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shardtest"
	"ssrec/internal/sigtree"
)

// gateShard is a reshard member, slot idx of an of-wide deployment,
// backed by a real engine whose snapshot handoff parks until released: it
// pins a member-seeded migration in the seeding phase so the test can
// admit live writes that provably land in the mirror ring, then lets the
// migration finish and serves the flipped fleet from the seeded engine.
type gateShard struct {
	idx, of int
	started chan struct{}
	release chan struct{}
	once    sync.Once

	mu    sync.Mutex
	inner *Local
}

func (g *gateShard) Index() int { return g.idx }
func (g *gateShard) Width() int { return g.of }

func (g *gateShard) Handoff(ctx context.Context, snapshot []byte) error {
	g.once.Do(func() { close(g.started) })
	select {
	case <-g.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	e, err := core.LoadShardFrom(bytes.NewReader(snapshot), g.idx, g.of)
	if err != nil {
		return err
	}
	g.inner = NewLocal(g.idx, e)
	return nil
}

func (g *gateShard) local() (*Local, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inner == nil {
		return nil, fmt.Errorf("member %d serving before its handoff", g.idx)
	}
	return g.inner, nil
}

func (g *gateShard) RegisterItems(ctx context.Context, items []model.Item) (bool, error) {
	l, err := g.local()
	if err != nil {
		return false, err
	}
	return l.RegisterItems(ctx, items)
}

func (g *gateShard) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	l, err := g.local()
	if err != nil {
		return core.BatchReport{}, err
	}
	return l.ObserveBatch(ctx, batch)
}

func (g *gateShard) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, bool, error) {
	l, err := g.local()
	if err != nil {
		return core.Result{ItemID: v.ID}, false, err
	}
	return l.Recommend(ctx, v, o, b)
}

func (g *gateShard) Stats() Stats {
	l, err := g.local()
	if err != nil {
		return Stats{Shard: g.idx}
	}
	return l.Stats()
}

// TestReshardMemberSeedingMirrorsLiveWrites parks a member-seeded 1→2
// split in the seeding phase, admits an observation micro-batch AND a
// query batch carrying a never-seen item (the registration must be
// mirrored, not just the observations), then releases the members and
// requires the flipped fleet to answer bit-identically to a sequential
// reference that saw the same admitted stream.
func TestReshardMemberSeedingMirrorsLiveWrites(t *testing.T) {
	fx := fixture(t)
	r, err := boot(fx.Snapshot, 1, 1)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}

	release := make(chan struct{})
	members := []Shard{
		&gateShard{idx: 0, of: 2, started: make(chan struct{}), release: release},
		&gateShard{idx: 1, of: 2, started: make(chan struct{}), release: release},
	}
	ctx := context.Background()
	errCh := make(chan error, 1)
	go func() { errCh <- r.Reshard(ctx, 2, members...) }()
	<-members[0].(*gateShard).started

	// Parked mid-seeding: writes keep flowing on the old fleet and every
	// state-advancing batch — observations and the fresh registration —
	// must land in the mirror ring for the fleet being seeded.
	batch := fx.Obs[:shardtest.ReplayBatch]
	if _, err := r.ObserveBatch(ctx, batch); err != nil {
		t.Fatalf("observe during seeding: %v", err)
	}
	fresh := fx.Queries[0]
	fresh.ID = "reshard-fresh-item"
	fresh.Timestamp++
	liveRes, err := r.RecommendBatch(ctx, []model.Item{fresh}, core.WithK(shardtest.ReplayK))
	if err != nil {
		t.Fatalf("query during seeding: %v", err)
	}
	st := r.ReshardStatus()
	if !st.Active || st.Phase != ReshardPhaseSeeding {
		t.Fatalf("mid-seeding status %+v, want active seeding", st)
	}
	if st.RingDepth < 2 || st.MirroredBatches < 2 {
		t.Fatalf("ring depth %d, mirrored %d — want >= 2 each (one observe + one register)",
			st.RingDepth, st.MirroredBatches)
	}

	close(release)
	if err := <-errCh; err != nil {
		t.Fatalf("member-seeded reshard: %v", err)
	}
	if got := r.Shards(); got != 2 {
		t.Fatalf("post-reshard width %d, want 2", got)
	}
	if got := r.Epoch(); got != 1 {
		t.Fatalf("post-reshard epoch %d, want 1", got)
	}
	st = r.ReshardStatus()
	if st.Active || st.Phase != ReshardPhaseDone || st.Seeded != 2 || st.Completed != 1 {
		t.Fatalf("terminal status %+v, want idle done with 2 seeded and 1 completed", st)
	}

	// Exactness: a sequential reference replays the same admitted stream;
	// the query served DURING the migration and the queries served by the
	// flipped-in members must both match it bit-for-bit.
	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	if _, err := reference.ObserveBatch(ctx, batch); err != nil {
		t.Fatalf("reference observe: %v", err)
	}
	wantLive, err := reference.RecommendBatch(ctx, []model.Item{fresh}, core.WithK(shardtest.ReplayK))
	if err != nil {
		t.Fatalf("reference live query: %v", err)
	}
	qs := fx.Queries[:shardtest.ReplayQueryLen]
	want, err := reference.RecommendBatch(ctx, qs, core.WithK(shardtest.ReplayK))
	if err != nil {
		t.Fatalf("reference post-flip queries: %v", err)
	}
	got, err := r.RecommendBatch(ctx, qs, core.WithK(shardtest.ReplayK))
	if err != nil {
		t.Fatalf("post-flip queries: %v", err)
	}
	for i := range want {
		want[i].Stats = sigtree.SearchStats{}
		got[i].Stats = sigtree.SearchStats{}
	}
	for i := range wantLive {
		wantLive[i].Stats = sigtree.SearchStats{}
		liveRes[i].Stats = sigtree.SearchStats{}
	}
	if !reflect.DeepEqual(wantLive, liveRes) {
		t.Fatalf("query during migration diverged from reference:\n got %+v\nwant %+v", liveRes, wantLive)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("flipped fleet diverged from reference:\n got %+v\nwant %+v", got, want)
	}
}

// TestReshardSnapshotExportRefusal covers the abort-before-anything
// paths of the watermark export: a fleet whose only provider fails, a
// fleet with no provider at all, and a fleet whose provider is excluded
// must all refuse the reshard up front, leave the serving fleet
// untouched and record a terminal failed status.
func TestReshardSnapshotExportRefusal(t *testing.T) {
	fx := fixture(t)
	e, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot engine: %v", err)
	}
	ctx := context.Background()

	t.Run("provider error", func(t *testing.T) {
		stub := &stubShard{inner: NewLocal(0, e)}
		stub.failing.Store(true)
		r := newRouter([]Shard{stub, &noHandoffShard{idx: 1}})
		err := r.Reshard(ctx, 2)
		if err == nil || !strings.Contains(err.Error(), "snapshot export") {
			t.Fatalf("err = %v, want snapshot export failure", err)
		}
		st := r.ReshardStatus()
		if st.Active || st.Phase != ReshardPhaseFailed || st.Error == "" || st.Completed != 0 {
			t.Fatalf("terminal status %+v, want idle failed with error text", st)
		}
		if got := r.Shards(); got != 2 {
			t.Fatalf("refused reshard changed width to %d", got)
		}
	})

	t.Run("no provider", func(t *testing.T) {
		r := newRouter([]Shard{&noHandoffShard{idx: 0}})
		if err := r.Reshard(ctx, 2); !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("err = %v, want ErrShardUnavailable (no snapshot source)", err)
		}
	})

	t.Run("provider excluded", func(t *testing.T) {
		stub := &stubShard{inner: NewLocal(0, e)}
		r := newRouter([]Shard{stub})
		r.fl().exclude(0)
		if err := r.Reshard(ctx, 2); !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("err = %v, want ErrShardUnavailable (source excluded)", err)
		}
	})
}
