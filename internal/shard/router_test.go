package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
)

func bootRouter(t testing.TB, n int) *Router {
	t.Helper()
	fx := fixture(t)
	r, err := FromSnapshot(fx.Snapshot, n)
	if err != nil {
		t.Fatalf("boot %d-shard router: %v", n, err)
	}
	return r
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(); err == nil {
		t.Error("empty router accepted")
	}
	eng := core.New(core.Config{Categories: []string{"c"}})
	if _, err := NewRouter(NewLocal(1, eng)); err == nil {
		t.Error("out-of-order shard index accepted")
	}
	if r, err := NewRouter(NewLocal(0, eng)); err != nil || r.Shards() != 1 {
		t.Errorf("single-shard router: %v, %v", r, err)
	}
}

func TestRouterUntrained(t *testing.T) {
	r := New(core.Config{Categories: []string{"cat"}}, 3)
	results, err := r.RecommendBatch(context.Background(), []model.Item{{ID: "x", Category: "cat"}})
	if !errors.Is(err, core.ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
	if len(results) != 1 || !errors.Is(results[0].Err, core.ErrNotTrained) {
		t.Fatalf("results = %+v", results)
	}
}

func TestRouterUnknownCategory(t *testing.T) {
	r := bootRouter(t, 2)
	res, err := r.RecommendCtx(context.Background(), model.Item{ID: "alien", Category: "no-such"})
	if !errors.Is(err, core.ErrUnknownCategory) {
		t.Fatalf("err = %v, want ErrUnknownCategory", err)
	}
	if len(res.Recommendations) != 0 {
		t.Fatalf("unexpected recommendations: %v", res.Recommendations)
	}
}

// TestRouterV1Parity: the v1-shaped surface (Recommend / Observe /
// RegisterItem / Users / IndexView) behaves like the single engine's.
func TestRouterV1Parity(t *testing.T) {
	fx := fixture(t)
	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	r := bootRouter(t, 3)
	if r.Users() != reference.Users() {
		t.Errorf("Users: router %d, engine %d", r.Users(), reference.Users())
	}
	refStats, _ := reference.IndexStats()
	if got := r.IndexView(); got.Trees != refStats.Trees || got.Blocks != refStats.Blocks {
		t.Errorf("IndexView: router %+v, engine %+v", got, refStats)
	}
	for i := 0; i < 5; i++ {
		v := fx.Queries[i]
		want := reference.Recommend(v, 7)
		got := r.Recommend(v, 7)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("item %s: v1 Recommend diverged\n got %v\nwant %v", v.ID, got, want)
		}
		o := fx.Obs[i]
		reference.Observe(model.Interaction{UserID: o.UserID, ItemID: o.Item.ID, Timestamp: o.Timestamp}, o.Item)
		r.Observe(model.Interaction{UserID: o.UserID, ItemID: o.Item.ID, Timestamp: o.Timestamp}, o.Item)
	}
}

// TestRouterConcurrentObserveRecommend is the -race hammer through the
// scatter-gather path: concurrent ObserveBatch writers and RecommendBatch
// readers drive a 3-shard deployment; results must stay well-formed
// (sorted, bounded) under the race detector. The single-engine counterpart
// lives in internal/core/concurrent_test.go.
func TestRouterConcurrentObserveRecommend(t *testing.T) {
	fx := fixture(t)
	r := bootRouter(t, 3)
	const (
		readers  = 4
		writers  = 2
		nObs     = 1024
		nQueries = 60
	)
	obs := fx.Obs[:nObs]
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * (nObs / writers); lo < (w+1)*(nObs/writers); lo += 64 {
				hi := min(lo+64, (w+1)*(nObs/writers))
				if _, err := r.ObserveBatch(context.Background(), obs[lo:hi]); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < nQueries; i += readers {
				q := queryWindow(fx.Queries, i)
				results, err := r.RecommendBatch(context.Background(), q, core.WithK(10))
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				for _, res := range results {
					if res.Err != nil {
						t.Errorf("reader %d item %s: %v", g, res.ItemID, res.Err)
						return
					}
					if len(res.Recommendations) > 10 {
						t.Errorf("reader %d: %d recs", g, len(res.Recommendations))
						return
					}
					for j := 1; j < len(res.Recommendations); j++ {
						if model.ByScoreDesc(res.Recommendations[j], res.Recommendations[j-1]) {
							t.Errorf("reader %d: unsorted result under concurrency", g)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// settleGoroutines waits for the goroutine count to return to (near) the
// recorded baseline — the leak guard of the cancellation tests. The small
// tolerance absorbs runtime/testing helpers.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked after cancellation: %d > baseline %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterCancellation drives cancellation through the router
// scatter-gather at several deadlines: every run must either complete
// cleanly or report the context error on the call AND on every
// undelivered item, and the scatter goroutines must always be joined
// (leak-checked against a goroutine-count baseline).
func TestRouterCancellation(t *testing.T) {
	r := bootRouter(t, 4)
	fx := fixture(t)
	items := make([]model.Item, 0, 64)
	for i := 0; i < 64; i++ {
		items = append(items, fx.Queries[i%len(fx.Queries)])
	}
	// Warm the deployment so registration is not part of the timing.
	if _, err := r.RecommendBatch(context.Background(), items, core.WithK(10)); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	base := runtime.NumGoroutine()
	sawCancel := false
	for _, timeout := range []time.Duration{time.Nanosecond, 50 * time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		results, err := r.RecommendBatch(ctx, items, core.WithK(10))
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("timeout %v: err = %v, want DeadlineExceeded", timeout, err)
			}
			sawCancel = true
			nErr := 0
			for _, res := range results {
				if res.Err != nil {
					if !errors.Is(res.Err, context.DeadlineExceeded) {
						t.Fatalf("timeout %v: item err = %v", timeout, res.Err)
					}
					nErr++
				}
			}
			if nErr == 0 && len(results) > 0 {
				t.Errorf("timeout %v: call cancelled but no item reported it", timeout)
			}
		}
		settleGoroutines(t, base)
	}
	if !sawCancel {
		t.Fatal("no deadline fired — timeouts too generous for this machine")
	}
	// An already-cancelled context must short-circuit before any scatter.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RecommendCtx(ctx, items[0], core.WithK(5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RecommendCtx: %v", err)
	}
	if _, err := r.ObserveBatch(ctx, fx.Obs[:8]); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ObserveBatch: %v", err)
	}
	settleGoroutines(t, base)
}

// TestRouterCancelledBatchStillRegisters: Engine.RecommendBatch registers
// its items BEFORE honouring cancellation, so the router must too — a
// cancelled batch that skipped registration on the shards would drift
// their producer layers away from the single engine's for every later
// query (regression test for exactly that bug).
func TestRouterCancelledBatchStillRegisters(t *testing.T) {
	fx := fixture(t)
	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	r := bootRouter(t, 2)
	fresh := fx.Queries[len(fx.Queries)-1]
	fresh.ID = "cancel-reg-probe"
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := reference.RecommendBatch(ctx, []model.Item{fresh}, core.WithK(5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("engine err = %v", err)
	}
	if _, err := r.RecommendBatch(ctx, []model.Item{fresh}, core.WithK(5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("router err = %v", err)
	}
	// Both deployments registered the item during the cancelled call; the
	// follow-up live queries must therefore stay identical.
	for _, v := range []model.Item{fresh, fx.Queries[0]} {
		want, werr := reference.RecommendCtx(context.Background(), v, core.WithK(10))
		got, gerr := r.RecommendCtx(context.Background(), v, core.WithK(10))
		if werr != nil || gerr != nil {
			t.Fatalf("follow-up errs: %v / %v", werr, gerr)
		}
		if !reflect.DeepEqual(got.Recommendations, want.Recommendations) {
			t.Fatalf("post-cancellation drift on %s:\n got %v\nwant %v", v.ID, got.Recommendations, want.Recommendations)
		}
	}
}

// TestRouterObserveBatchAtomicity: cancellation mid-stream must not let
// replicas drift — a batch either lands on every shard or on none, so the
// deployment stays conformant afterwards.
func TestRouterObserveBatchAtomicity(t *testing.T) {
	fx := fixture(t)
	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	r := bootRouter(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	// Batches 0,1 land; then a cancelled context rejects batch 2 entirely.
	for i := 0; i < 2; i++ {
		chunk := fx.Obs[i*64 : (i+1)*64]
		if _, err := r.ObserveBatch(ctx, chunk); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if _, err := reference.ObserveBatch(context.Background(), chunk); err != nil {
			t.Fatalf("reference batch %d: %v", i, err)
		}
	}
	cancel()
	if _, err := r.ObserveBatch(ctx, fx.Obs[128:192]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v", err)
	}
	// The rejected batch touched nothing: the deployment still matches the
	// reference engine exactly.
	for i := 0; i < 4; i++ {
		v := fx.Queries[i]
		want, werr := reference.RecommendCtx(context.Background(), v, core.WithK(10))
		got, gerr := r.RecommendCtx(context.Background(), v, core.WithK(10))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("item %s: errs %v vs %v", v.ID, gerr, werr)
		}
		if !reflect.DeepEqual(got.Recommendations, want.Recommendations) {
			t.Fatalf("item %s: post-cancellation divergence\n got %v\nwant %v", v.ID, got.Recommendations, want.Recommendations)
		}
	}
}

func TestFromSnapshotGarbage(t *testing.T) {
	if _, err := FromSnapshot([]byte("not a snapshot"), 2); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

func TestRouterTrain(t *testing.T) {
	fx := fixture(t)
	_ = fx
	cfg := dsConfig(t)
	r := New(cfg.engineCfg, 2)
	if err := r.Train(cfg.items, cfg.irs, cfg.resolve); err != nil {
		t.Fatalf("Train: %v", err)
	}
	st := r.ShardStats()
	if !st[0].Trained || !st[1].Trained {
		t.Fatalf("shards untrained after Train: %+v", st)
	}
	if st[0].OwnedUsers+st[1].OwnedUsers != st[0].Users {
		t.Fatalf("ownership not a partition: %+v", st)
	}
	res, err := r.RecommendCtx(context.Background(), cfg.query, core.WithK(5))
	if err != nil {
		t.Fatalf("RecommendCtx: %v", err)
	}
	if len(res.Recommendations) == 0 {
		t.Fatal("no recommendations from trained deployment")
	}
}

// dsConfig builds a tiny training corpus for Train-path tests.
type trainFixture struct {
	engineCfg core.Config
	items     []model.Item
	irs       []model.Interaction
	resolve   func(string) (model.Item, bool)
	query     model.Item
}

func dsConfig(t testing.TB) trainFixture {
	t.Helper()
	const cat = "music"
	byID := map[string]model.Item{}
	var items []model.Item
	var irs []model.Interaction
	ts := int64(0)
	for i := 0; i < 40; i++ {
		ts++
		v := model.Item{
			ID: fmt.Sprintf("it%02d", i), Category: cat, Producer: fmt.Sprintf("up%d", i%3),
			Entities: []string{fmt.Sprintf("e%d", i%7), "shared"}, Timestamp: ts,
		}
		items = append(items, v)
		byID[v.ID] = v
		for u := 0; u < 6; u++ {
			if (i+u)%2 == 0 {
				irs = append(irs, model.Interaction{
					UserID: fmt.Sprintf("user%d", u), ItemID: v.ID, Timestamp: ts + 1,
				})
			}
		}
	}
	return trainFixture{
		engineCfg: core.Config{Categories: []string{cat}, TrainMaxIter: 2, Restarts: 1, Seed: 5},
		items:     items,
		irs:       irs,
		resolve:   func(id string) (model.Item, bool) { v, ok := byID[id]; return v, ok },
		query: model.Item{ID: "fresh", Category: cat, Producer: "up0",
			Entities: []string{"shared", "e1"}, Timestamp: ts + 100},
	}
}
