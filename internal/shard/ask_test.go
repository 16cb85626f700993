// ask_test.go holds the single-item ask to the debt rules of the batch
// prologue it no longer pays for: every scatter leg registers the item
// before it searches, and the Router settles missed-write debt from the
// legs' changed flags — a fresh item debits an excluded shard, a warm one
// does not, a cancelled ask debits nothing healthy, and an in-flight
// reshard receives the registration.
package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/sigtree"
)

// cancelAsk ends the ask's context when it reaches the shard, after the
// Router dispatched the ask and before the shard searches.
type cancelAsk struct {
	Shard
	cancel *atomic.Pointer[context.CancelFunc]
}

func (s cancelAsk) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, bool, error) {
	if c := s.cancel.Load(); c != nil {
		(*c)()
	}
	return s.Shard.Recommend(ctx, v, o, b)
}

// excludeWarm makes shard i fail and excludes it with a warm ask, which
// must leave it without debt.
func excludeWarm(t *testing.T, r *Router, stub *stubShard, i int, warm model.Item) {
	t.Helper()
	stub.failing.Store(true)
	if _, err := r.RecommendCtx(context.Background(), warm, core.WithK(5)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("warm ask with shard %d failing: err = %v, want ErrShardUnavailable", i, err)
	}
	if f := r.fl(); !f.isDown(i) || f.owes(i) {
		t.Fatalf("after a warm ask: shard %d down=%v owes=%v, want excluded without debt", i, f.isDown(i), f.owes(i))
	}
}

func TestAskFreshItemDebitsExcludedShard(t *testing.T) {
	fx := fixture(t)
	r, stubs := stubDeployment(t)
	ctx := context.Background()
	warm, fresh := fx.Queries[0], fx.Queries[5]
	if _, err := r.RecommendCtx(ctx, warm, core.WithK(5)); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	excludeWarm(t, r, stubs[1], 1, warm)

	// A warm re-ask skips the excluded shard and still proves a no-op.
	if _, err := r.RecommendCtx(ctx, warm, core.WithK(5)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("warm re-ask: err = %v, want degraded", err)
	}
	if r.fl().owes(1) {
		t.Fatal("a warm re-ask debited the excluded shard")
	}

	res, err := r.RecommendCtx(ctx, fresh, core.WithK(5))
	if !errors.Is(err, ErrShardUnavailable) || len(res.Recommendations) == 0 {
		t.Fatalf("fresh ask: err = %v with %d recommendations, want a degraded partial answer", err, len(res.Recommendations))
	}
	if f := r.fl(); !f.owes(1) || f.owes(0) {
		t.Fatalf("after a fresh ask: owes = [%v %v], want [false true]", f.owes(0), f.owes(1))
	}
	if stubs[0].inner.Engine().NeedsRegistration([]model.Item{fresh}) {
		t.Fatal("the healthy shard's ask did not register the fresh item")
	}
}

func TestAskCancelledDebitsNothingHealthy(t *testing.T) {
	fx := fixture(t)
	_, stubs := stubDeployment(t)
	var onAsk atomic.Pointer[context.CancelFunc]
	r, err := NewRouter(cancelAsk{Shard: stubs[0], cancel: &onAsk}, stubs[1])
	if err != nil {
		t.Fatal(err)
	}
	cancelledAsk := func(v model.Item) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		onAsk.Store(&cancel)
		defer onAsk.Store(nil)
		if _, err := r.RecommendCtx(ctx, v, core.WithK(5)); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ask of %s: err = %v, want context.Canceled", v.ID, err)
		}
	}
	warm := fx.Queries[0]
	if _, err := r.RecommendCtx(context.Background(), warm, core.WithK(5)); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	// Healthy fleet: the cancelled fresh ask registers everywhere and
	// leaves nobody out.
	cancelledAsk(fx.Queries[5])
	if down := r.Down(); len(down) != 0 {
		t.Fatalf("a cancelled ask excluded %v", down)
	}
	for i, s := range stubs {
		if s.inner.Engine().NeedsRegistration([]model.Item{fx.Queries[5]}) {
			t.Fatalf("shard %d did not register the cancelled ask's item", i)
		}
	}

	// Shard 1 excluded: a cancelled fresh ask still proves the item new,
	// so the excluded shard owes it and the healthy one does not.
	excludeWarm(t, r, stubs[1], 1, warm)
	cancelledAsk(fx.Queries[6])
	if f := r.fl(); f.isDown(0) || f.owes(0) || !f.owes(1) {
		t.Fatalf("after a cancelled fresh ask: shard 0 down=%v owes=%v, shard 1 owes=%v; want false/false/true",
			f.isDown(0), f.owes(0), f.owes(1))
	}
}

func TestAskMirrorsToInFlightReshard(t *testing.T) {
	fx := fixture(t)
	r, err := boot(fx.Snapshot, 1, 1)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	members := []Shard{
		&stallShard{idx: 0, of: 2, started: make(chan struct{})},
		&stallShard{idx: 1, of: 2, started: make(chan struct{})},
	}
	errCh := make(chan error, 1)
	go func() { errCh <- r.Reshard(ctx, 2, members...) }()
	<-members[0].(*stallShard).started

	fresh := fx.Queries[5]
	for i, want := range []uint64{1, 1} { // fresh, then a warm re-ask
		if _, err := r.RecommendCtx(context.Background(), fresh, core.WithK(5)); err != nil {
			t.Fatalf("ask %d during the reshard: %v", i+1, err)
		}
		if got := r.ReshardStatus().MirroredBatches; got != want {
			t.Fatalf("after ask %d: %d mirrored batches, want %d", i+1, got, want)
		}
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled reshard returned %v", err)
	}
}

func TestAskReplicaSetDebt(t *testing.T) {
	fx := fixture(t)
	ctx := context.Background()
	r, stubs := replicaDeployment(t)
	rs := slotSet(t, r, 0)
	warm := fx.Queries[0]
	if _, err := r.RecommendCtx(ctx, warm, core.WithK(5)); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	// Replica 1 of slot 0 fails: the slot keeps answering, and warm asks
	// leave the replica without debt. Its pings fail too, so no
	// background probe re-includes it.
	stubs[0][1].failing.Store(true)
	stubs[0][1].pingOK.Store(false)
	for i := 0; i < 3; i++ {
		if _, err := r.RecommendCtx(ctx, warm, core.WithK(5)); err != nil {
			t.Fatalf("warm ask %d with a sibling down: %v", i, err)
		}
	}
	if !rs.isDown(1) || rs.owes(1) {
		t.Fatalf("after warm asks: replica 1 down=%v owes=%v, want excluded without debt", rs.isDown(1), rs.owes(1))
	}
	if _, err := r.RecommendCtx(ctx, fx.Queries[5], core.WithK(5)); err != nil {
		t.Fatalf("fresh ask with a sibling down: %v", err)
	}
	if !rs.owes(1) {
		t.Fatal("a fresh ask left the down replica without debt")
	}
}

// countShard counts the registrations and asks that reach one replica.
type countShard struct {
	Shard
	registers, asks atomic.Int64
}

func (s *countShard) RegisterItems(ctx context.Context, items []model.Item) (bool, error) {
	s.registers.Add(1)
	return s.Shard.RegisterItems(ctx, items)
}

func (s *countShard) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, bool, error) {
	s.asks.Add(1)
	return s.Shard.Recommend(ctx, v, o, b)
}

// countedReplicas builds a 2-slot × 2-replica Router whose replicas are
// the stubs' Locals under wrap, each counted.
func countedReplicas(t *testing.T, wrap func(i, j int, s *stubShard) Shard) (*Router, [][]*countShard, [][]*stubShard) {
	t.Helper()
	fx := fixture(t)
	const slots, reps = 2, 2
	counts := make([][]*countShard, slots)
	stubs := make([][]*stubShard, slots)
	sets := make([]Shard, slots)
	for i := range sets {
		members := make([]Shard, reps)
		for j := range members {
			e, err := core.LoadShardFrom(bytes.NewReader(fx.Snapshot), i, slots)
			if err != nil {
				t.Fatalf("boot slot %d replica %d: %v", i, j, err)
			}
			s := &stubShard{inner: NewLocal(i, e)}
			s.pingOK.Store(true)
			c := &countShard{Shard: wrap(i, j, s)}
			stubs[i] = append(stubs[i], s)
			counts[i] = append(counts[i], c)
			members[j] = c
		}
		rs, err := NewReplicaSet(i, members...)
		if err != nil {
			t.Fatalf("replica set %d: %v", i, err)
		}
		sets[i] = rs
	}
	r, err := NewRouter(sets...)
	if err != nil {
		t.Fatal(err)
	}
	return r, counts, stubs
}

// TestAskReplicaSetRefusalDebitsSlot: a slot none of whose replicas
// accepts the ask's registration — the read replica refuses the ask, the
// other refuses RegisterItems with a plain error — fails the ask with
// ErrNotRegistered, and when a sibling slot proves the item new the
// Router holds the refusing slot in debt. Replica 1 reads, so the
// lowest-index refusal is the plain one.
func TestAskReplicaSetRefusalDebitsSlot(t *testing.T) {
	fx := fixture(t)
	ctx := context.Background()
	var refusing atomic.Bool
	r, _, stubs := countedReplicas(t, func(i, j int, s *stubShard) Shard {
		if i == 0 && j == 1 {
			return refusingWhen{stubShard: s, on: &refusing}
		}
		return s
	})
	if _, err := r.RecommendCtx(ctx, fx.Queries[0], core.WithK(5)); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	refusing.Store(true)
	stubs[0][0].fatal.Store(true)
	rs := slotSet(t, r, 0)
	rs.observeLatency(0, time.Second)
	rs.observeLatency(1, time.Microsecond)
	res, err := r.RecommendCtx(ctx, fx.Queries[5], core.WithK(5))
	if !errors.Is(err, ErrNotRegistered) || errors.Is(err, ErrShardUnavailable) || len(res.Recommendations) != 0 {
		t.Fatalf("fresh ask over a refusing slot: err = %v with %d recommendations, want ErrNotRegistered and none",
			err, len(res.Recommendations))
	}
	if f := r.fl(); !f.owes(0) || f.owes(1) {
		t.Fatalf("after the refused fresh ask: owes = [%v %v], want [true false]", f.owes(0), f.owes(1))
	}
}

// refusingWhen refuses asks before registering while on is set.
type refusingWhen struct {
	*stubShard
	on *atomic.Bool
}

func (s refusingWhen) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, bool, error) {
	if s.on.Load() {
		return core.Result{ItemID: v.ID}, false, fmt.Errorf("%w: stub ask refused", ErrNotRegistered)
	}
	return s.stubShard.Recommend(ctx, v, o, b)
}

// TestAskReplicaSetRPCCounts pins the calls a replicated deployment
// sends: a single ask reads from one replica per slot, which registers
// the item through that ask, and sends RegisterItems to the others; a
// batch writes its items once, in its prologue, and then reads each item
// from one replica per slot, adding nothing to the delta ring.
func TestAskReplicaSetRPCCounts(t *testing.T) {
	fx := fixture(t)
	ctx := context.Background()
	const slots, reps = 2, 2
	r, counts, _ := countedReplicas(t, func(_, _ int, s *stubShard) Shard { return s })
	total := func() (registers, asks int64) {
		for _, slot := range counts {
			for _, c := range slot {
				registers += c.registers.Load()
				asks += c.asks.Load()
			}
		}
		return registers, asks
	}

	if _, err := r.RecommendCtx(ctx, fx.Queries[0], core.WithK(5)); err != nil {
		t.Fatalf("ask: %v", err)
	}
	if reg, asks := total(); reg != slots*(reps-1) || asks != slots {
		t.Fatalf("one ask sent %d registrations and %d asks, want %d and %d", reg, asks, slots*(reps-1), slots)
	}

	const batch = 6
	seq := make([]uint64, slots)
	for i := range seq {
		seq[i] = slotSet(t, r, i).wseq.Load()
	}
	reg0, asks0 := total()
	if _, err := r.RecommendBatch(ctx, fx.Queries[1:1+batch], core.WithK(5)); err != nil {
		t.Fatalf("batch: %v", err)
	}
	reg, asks := total()
	if reg-reg0 != slots*reps || asks-asks0 != slots*batch {
		t.Fatalf("a batch of %d sent %d registrations and %d asks, want %d and %d",
			batch, reg-reg0, asks-asks0, slots*reps, slots*batch)
	}
	for i := range seq {
		if got := slotSet(t, r, i).wseq.Load() - seq[i]; got != 1 {
			t.Fatalf("slot %d: the batch added %d delta-ring writes, want 1 (its prologue)", i, got)
		}
	}
}
