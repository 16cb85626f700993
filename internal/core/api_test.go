package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ssrec/internal/model"
)

// TestRecommendCtxEquivalence: the v2 single-item query returns exactly
// what the v1 Recommend returns, at every option combination that keeps
// semantics unchanged.
func TestRecommendCtxEquivalence(t *testing.T) {
	e, items, _ := streamEngine(t, Config{})
	ctx := context.Background()
	tested := 0
	for _, v := range items {
		if tested >= 50 {
			break
		}
		tested++
		want := e.Recommend(v, 10)
		for _, opts := range [][]Option{
			{},
			{WithK(10)},
		} {
			res, err := e.RecommendCtx(ctx, v, opts...)
			if err != nil {
				t.Fatalf("RecommendCtx(%s): %v", v.ID, err)
			}
			if res.ItemID != v.ID {
				t.Fatalf("ItemID = %q, want %q", res.ItemID, v.ID)
			}
			if !reflect.DeepEqual(res.Recommendations, want) {
				t.Fatalf("RecommendCtx(%s, %d opts) diverged from Recommend", v.ID, len(opts))
			}
		}
	}
	if tested == 0 {
		t.Fatal("no items tested")
	}
}

// TestRecommendCtxWithoutExpansion: the per-call option matches the
// engine-level DisableExpansion config.
func TestRecommendCtxWithoutExpansion(t *testing.T) {
	e, items, _ := streamEngine(t, Config{})
	ne, _, _ := streamEngine(t, Config{DisableExpansion: true})
	ctx := context.Background()
	for _, v := range items[:30] {
		res, err := e.RecommendCtx(ctx, v, WithK(10), WithoutExpansion())
		if err != nil {
			t.Fatalf("RecommendCtx: %v", err)
		}
		want := ne.Recommend(v, 10)
		if !reflect.DeepEqual(res.Recommendations, want) {
			t.Fatalf("WithoutExpansion diverged from DisableExpansion engine on %s", v.ID)
		}
	}
}

func TestRecommendCtxErrors(t *testing.T) {
	ctx := context.Background()
	untrained := New(Config{Categories: []string{"a"}})
	if _, err := untrained.RecommendCtx(ctx, model.Item{ID: "x", Category: "a"}); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("untrained error = %v, want ErrNotTrained", err)
	}

	e, _, _ := streamEngine(t, Config{})
	_, err := e.RecommendCtx(ctx, model.Item{ID: "alien", Category: "no-such-category"})
	if !errors.Is(err, ErrUnknownCategory) {
		t.Fatalf("unknown category error = %v, want ErrUnknownCategory", err)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.RecommendCtx(cancelled, model.Item{ID: "x", Category: "cat01"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled error = %v, want context.Canceled", err)
	}
}

// TestObserveBatchEquivalence: ingesting a stream through ObserveBatch
// micro-batches leaves the engine in exactly the state per-item Observe
// produces — same profiles, same index answers.
func TestObserveBatchEquivalence(t *testing.T) {
	a, items, irs := streamEngine(t, Config{})
	b, _, _ := streamEngine(t, Config{})
	byID := make(map[string]model.Item, len(items))
	for _, v := range items {
		byID[v.ID] = v
	}
	if len(irs) > 400 {
		irs = irs[:400]
	}
	var batch []Observation
	for _, ir := range irs {
		v, ok := byID[ir.ItemID]
		if !ok {
			continue
		}
		a.Observe(ir, v)
		batch = append(batch, Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
	}
	ctx := context.Background()
	// Uneven chunk size exercises partial trailing batches.
	for len(batch) > 0 {
		n := min(37, len(batch))
		rep, err := b.ObserveBatch(ctx, batch[:n])
		if err != nil {
			t.Fatalf("ObserveBatch: %v", err)
		}
		if rep.Applied != n || rep.Rejected != 0 {
			t.Fatalf("report = %+v, want %d applied", rep, n)
		}
		batch = batch[n:]
	}
	if a.Users() != b.Users() {
		t.Fatalf("user counts diverged: %d vs %d", a.Users(), b.Users())
	}
	for _, v := range items[:80] {
		ra := a.Recommend(v, 10)
		rb := b.Recommend(v, 10)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("Observe and ObserveBatch engines diverged on %s:\n  %v\n  %v", v.ID, ra, rb)
		}
	}
}

func TestObserveBatchValidation(t *testing.T) {
	e, items, _ := streamEngine(t, Config{})
	ctx := context.Background()
	good := Observation{UserID: "u-test", Item: items[0], Timestamp: 99}
	rep, err := e.ObserveBatch(ctx, []Observation{
		good,
		{UserID: "", Item: items[0], Timestamp: 100},         // missing user
		{UserID: "u-test", Item: model.Item{}, Timestamp: 1}, // missing item ID
	})
	if err != nil {
		t.Fatalf("ObserveBatch: %v", err)
	}
	if rep.Applied != 1 || rep.Rejected != 2 || len(rep.Errors) != 2 {
		t.Fatalf("report = %+v, want 1 applied / 2 rejected", rep)
	}
	if rep.Errors[0].Index != 1 || rep.Errors[1].Index != 2 {
		t.Fatalf("error indices = %+v", rep.Errors)
	}
	for _, oe := range rep.Errors {
		if !errors.Is(oe.Err, ErrInvalidObservation) {
			t.Fatalf("error = %v, want ErrInvalidObservation", oe.Err)
		}
	}
}

func TestObserveBatchCancelled(t *testing.T) {
	e, items, _ := streamEngine(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := e.ObserveBatch(ctx, []Observation{{UserID: "u", Item: items[0], Timestamp: 1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Applied != 0 {
		t.Fatalf("applied %d observations under a cancelled context", rep.Applied)
	}
}

// TestRecommendBatchPerItemErrors: item-scoped failures land in
// results[i].Err without failing the call.
func TestRecommendBatchPerItemErrors(t *testing.T) {
	e, items, _ := streamEngine(t, Config{})
	ctx := context.Background()
	batch := []model.Item{
		items[0],
		{ID: "alien", Category: "no-such-category"},
		items[1],
	}
	results, err := e.RecommendBatch(ctx, batch, WithK(5))
	if err != nil {
		t.Fatalf("RecommendBatch: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("valid items errored: %v / %v", results[0].Err, results[2].Err)
	}
	if !errors.Is(results[1].Err, ErrUnknownCategory) {
		t.Fatalf("results[1].Err = %v, want ErrUnknownCategory", results[1].Err)
	}
	for i := 0; i < 3; i += 2 {
		want := e.Recommend(batch[i], 5)
		if !reflect.DeepEqual(results[i].Recommendations, want) {
			t.Fatalf("results[%d] diverged from Recommend", i)
		}
	}
}

func TestRecommendBatchUntrained(t *testing.T) {
	e := New(Config{Categories: []string{"a"}})
	results, err := e.RecommendBatch(context.Background(), []model.Item{{ID: "x", Category: "a"}})
	if !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
	if len(results) != 1 || !errors.Is(results[0].Err, ErrNotTrained) {
		t.Fatalf("results = %+v", results)
	}
}

// TestRecommendBatchCancelledMidway: cancelling the context mid-batch
// returns ctx.Err() and marks undispatched items.
func TestRecommendBatchCancelledMidway(t *testing.T) {
	e, items, _ := streamEngine(t, Config{})
	if len(items) > 64 {
		items = items[:64]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before dispatch: every item must carry the error
	results, err := e.RecommendBatch(ctx, items, WithK(5))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("results[%d].Err = %v, want context.Canceled", i, res.Err)
		}
	}
}

// TestBatchErr: a finished batch fails with the context's error only when
// an item carries it, wrapped or not; a context that ended after every
// item was answered, or one that never ended, fails nothing.
func TestBatchErr(t *testing.T) {
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	answered := []Result{{ItemID: "a"}, {ItemID: "b", Err: ErrUnknownCategory}}
	cut := append(answered, Result{ItemID: "c", Err: fmt.Errorf("shard 1: %w", context.Canceled)})
	for _, c := range []struct {
		name    string
		ctx     context.Context
		results []Result
		want    error
	}{
		{"live", context.Background(), cut, nil},
		{"ended after every answer", ended, answered, nil},
		{"ended before an answer", ended, cut, context.Canceled},
	} {
		if got := BatchErr(c.ctx, c.results); got != c.want {
			t.Errorf("%s: BatchErr = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBatchAPIConcurrencyHammer drives RecommendBatch readers against an
// ObserveBatch writer — the v2 acceptance hammer; run with -race.
func TestBatchAPIConcurrencyHammer(t *testing.T) {
	e, items, irs := streamEngine(t, Config{UpdateBatch: 4})
	byID := make(map[string]model.Item, len(items))
	for _, v := range items {
		byID[v.ID] = v
	}
	var obs []Observation
	for _, ir := range irs {
		if v, ok := byID[ir.ItemID]; ok {
			obs = append(obs, Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
		}
	}
	if len(obs) > 600 {
		obs = obs[:600]
	}
	queries := items
	if len(queries) > 60 {
		queries = queries[:60]
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				results, err := e.RecommendBatch(ctx, queries, WithK(10))
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for i, res := range results {
					if res.Err != nil {
						t.Errorf("reader %d item %s: %v", r, queries[i].ID, res.Err)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunk := obs
		for len(chunk) > 0 {
			n := min(64, len(chunk))
			if _, err := e.ObserveBatch(ctx, chunk[:n]); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			chunk = chunk[n:]
		}
	}()
	wg.Wait()
}

// TestObserveBatchAmortisesFlushes: one ObserveBatch call performs exactly
// one index maintenance flush regardless of batch length.
func TestObserveBatchAmortisesFlushes(t *testing.T) {
	e, items, irs := streamEngine(t, Config{})
	byID := make(map[string]model.Item, len(items))
	for _, v := range items {
		byID[v.ID] = v
	}
	var batch []Observation
	for _, ir := range irs {
		if v, ok := byID[ir.ItemID]; ok {
			batch = append(batch, Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
		}
		if len(batch) == 128 {
			break
		}
	}
	rep, err := e.ObserveBatch(context.Background(), batch)
	if err != nil {
		t.Fatalf("ObserveBatch: %v", err)
	}
	uniq := map[string]bool{}
	for _, o := range batch {
		uniq[o.UserID] = true
	}
	if rep.Flushed != len(uniq) {
		t.Errorf("flushed %d users, want the %d unique users of the batch", rep.Flushed, len(uniq))
	}
	// After the batch flush nothing may be pending: a follow-up flush is
	// a no-op.
	if n := e.FlushUpdates(); n != 0 {
		t.Errorf("FlushUpdates after ObserveBatch refreshed %d users, want 0", n)
	}
}
