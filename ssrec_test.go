package ssrec

import (
	"net"

	"context"
	"errors"
	"reflect"
	"ssrec/internal/shardrpc"
	"testing"
)

// TestPublicV2Flow exercises the batch-first v2 surface end to end through
// the public package: options, sentinel errors, batch ingestion, and
// v1/v2 equivalence.
func TestPublicV2Flow(t *testing.T) {
	ds := GenerateYTubeLike(0.2, 9)
	rec := New(Config{Categories: ds.Categories(), TrainMaxIter: 5, Restarts: 1})
	if err := rec.TrainDataset(ds, 1.0/3); err != nil {
		t.Fatalf("TrainDataset: %v", err)
	}
	ctx := context.Background()
	items := ds.Items()
	v := items[len(items)-1]

	res, err := rec.RecommendCtx(ctx, v, WithK(10))
	if err != nil {
		t.Fatalf("RecommendCtx: %v", err)
	}
	if !reflect.DeepEqual(res.Recommendations, rec.Recommend(v, 10)) {
		t.Fatal("RecommendCtx diverged from Recommend")
	}

	if _, err := rec.RecommendCtx(ctx, Item{ID: "x", Category: "nope"}); !errors.Is(err, ErrUnknownCategory) {
		t.Fatalf("err = %v, want ErrUnknownCategory", err)
	}

	results, err := rec.RecommendBatch(ctx, items[len(items)-4:], WithK(5))
	if err != nil {
		t.Fatalf("RecommendBatch: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}

	report, err := rec.ObserveBatch(ctx, []Observation{
		{UserID: res.Recommendations[0].UserID, Item: v, Timestamp: v.Timestamp + 5},
		{UserID: "", Item: v, Timestamp: v.Timestamp + 6}, // rejected
	})
	if err != nil {
		t.Fatalf("ObserveBatch: %v", err)
	}
	if report.Applied != 1 || report.Rejected != 1 {
		t.Fatalf("report = %+v", report)
	}
	if !errors.Is(report.Errors[0].Err, ErrInvalidObservation) {
		t.Fatalf("rejection error = %v", report.Errors[0].Err)
	}
}

// TestPublicShardedFlow: Open(WithShards(n)) serves the same API and the
// same answers as the single engine — the public-surface statement of the
// internal/shard conformance contract.
func TestPublicShardedFlow(t *testing.T) {
	ds := GenerateYTubeLike(0.2, 9)
	cfg := Config{Categories: ds.Categories(), TrainMaxIter: 5, Restarts: 1}
	single := New(cfg)
	sharded := Open(cfg, WithShards(3))
	if single.Shards() != 1 || sharded.Shards() != 3 {
		t.Fatalf("Shards() = %d / %d", single.Shards(), sharded.Shards())
	}
	if single.Engine() == nil || sharded.Engine() != nil {
		t.Fatal("Engine accessor: single must expose one, sharded must not")
	}
	if sharded.Router() == nil {
		t.Fatal("sharded deployment has no router")
	}
	for _, r := range []*Recommender{single, sharded} {
		if err := r.TrainDataset(ds, 1.0/3); err != nil {
			t.Fatalf("TrainDataset: %v", err)
		}
	}
	if single.Users() != sharded.Users() {
		t.Fatalf("Users: %d vs %d", single.Users(), sharded.Users())
	}
	ctx := context.Background()
	items := ds.Items()
	checked := 0
	for i := len(items) - 8; i < len(items); i++ {
		a, errA := single.RecommendCtx(ctx, items[i], WithK(10))
		b, errB := sharded.RecommendCtx(ctx, items[i], WithK(10))
		if (errA == nil) != (errB == nil) {
			t.Fatalf("item %s: errs %v vs %v", items[i].ID, errA, errB)
		}
		if !reflect.DeepEqual(a.Recommendations, b.Recommendations) {
			t.Fatalf("item %s: sharded deployment diverged\n single  %v\n sharded %v",
				items[i].ID, a.Recommendations, b.Recommendations)
		}
		checked++
		// Keep the streams in lockstep.
		obs := []Observation{{UserID: "shard-flow-user", Item: items[i], Timestamp: items[i].Timestamp + 1}}
		if _, err := single.ObserveBatch(ctx, obs); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.ObserveBatch(ctx, obs); err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

// TestReplicasWithoutShards: WithReplicas alone serves one slot r ways
// (it used to be dropped, leaving a single unreplicated engine), and the
// replicated deployment answers bit-identically to New(cfg).
func TestReplicasWithoutShards(t *testing.T) {
	ds := GenerateYTubeLike(0.2, 9)
	cfg := Config{Categories: ds.Categories(), TrainMaxIter: 5, Restarts: 1}
	single := New(cfg)
	replicated := Open(cfg, WithReplicas(2))
	rt := replicated.Router()
	if rt == nil {
		t.Fatal("WithReplicas(2) served a single engine")
	}
	if rt.Shards() != 1 || rt.Replicas() != 2 {
		t.Fatalf("deployment is %d shards x %d replicas, want 1 x 2", rt.Shards(), rt.Replicas())
	}
	for _, r := range []*Recommender{single, replicated} {
		if err := r.TrainDataset(ds, 1.0/3); err != nil {
			t.Fatalf("TrainDataset: %v", err)
		}
	}
	ctx := context.Background()
	items := ds.Items()
	for _, v := range items[len(items)-8:] {
		want, werr := single.RecommendCtx(ctx, v, WithK(10))
		got, gerr := replicated.RecommendCtx(ctx, v, WithK(10))
		if werr != nil || gerr != nil {
			t.Fatalf("item %s: errs %v / %v", v.ID, werr, gerr)
		}
		if !reflect.DeepEqual(got.Recommendations, want.Recommendations) {
			t.Fatalf("item %s: replicated deployment diverged\n got %v\nwant %v",
				v.ID, got.Recommendations, want.Recommendations)
		}
	}
}

func TestPublicQuickstartFlow(t *testing.T) {
	ds := GenerateYTubeLike(0.2, 9)
	rec := New(Config{Categories: ds.Categories(), TrainMaxIter: 5, Restarts: 1})
	if err := rec.TrainDataset(ds, 1.0/3); err != nil {
		t.Fatalf("TrainDataset: %v", err)
	}
	items := ds.Items()
	v := items[len(items)-1]
	recs := rec.Recommend(v, 10)
	if len(recs) == 0 {
		t.Fatal("no recommendations for latest item")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Fatal("results unsorted")
		}
	}
	// Streaming maintenance.
	ir := Interaction{UserID: recs[0].UserID, ItemID: v.ID, Timestamp: v.Timestamp + 5}
	rec.Observe(ir, v)
}

func TestTrainDatasetFractionValidation(t *testing.T) {
	ds := GenerateYTubeLike(0.15, 3)
	rec := New(Config{Categories: ds.Categories()})
	if err := rec.TrainDataset(ds, 0); err == nil {
		t.Error("fraction 0 accepted")
	}
	if err := rec.TrainDataset(ds, 1.5); err == nil {
		t.Error("fraction 1.5 accepted")
	}
}

func TestEvaluatePublic(t *testing.T) {
	ds := GenerateYTubeLike(0.15, 4)
	res, err := Evaluate(Config{Categories: ds.Categories(), TrainMaxIter: 4, Restarts: 1}, ds, []int{5, 10})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.System != "ssRec" || res.ItemsTested == 0 {
		t.Fatalf("result = %+v", res)
	}
	for _, k := range []int{5, 10} {
		if p := res.PAtK[k]; p < 0 || p > 1 {
			t.Errorf("P@%d = %v", k, p)
		}
	}
}

func TestDatasetAccessors(t *testing.T) {
	ds := GenerateMLensLike(0.15, 5)
	if ds.Name() != "MLens" {
		t.Errorf("Name = %s", ds.Name())
	}
	if len(ds.Categories()) != 15 {
		t.Errorf("categories = %d", len(ds.Categories()))
	}
	if len(ds.Items()) == 0 || len(ds.Interactions()) == 0 {
		t.Fatal("empty dataset")
	}
	if _, ok := ds.Item(ds.Items()[0].ID); !ok {
		t.Error("Item lookup broken")
	}
	if ds.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestReplicateAndPersistence(t *testing.T) {
	src := GenerateYTubeLike(0.15, 6)
	syn := Replicate(src, "SynTest", 7)
	if syn.Name() != "SynTest" {
		t.Errorf("Name = %s", syn.Name())
	}
	if len(syn.Items()) != len(src.Items()) {
		t.Errorf("item count mismatch: %d vs %d", len(syn.Items()), len(src.Items()))
	}
	path := t.TempDir() + "/ds.bin"
	if err := syn.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadDataset(path)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if len(got.Items()) != len(syn.Items()) {
		t.Error("round-trip lost items")
	}
}

// TestPublicRemoteShards exercises the WithRemoteShards wiring end to
// end through the public package: lazy Open, the remote Train path
// (train once locally, snapshot, handoff to every shardd), and
// observable equivalence with a single-engine recommender over live
// loopback HTTP/2 shards.
func TestPublicRemoteShards(t *testing.T) {
	ds := GenerateYTubeLike(0.15, 13)
	cfg := Config{Categories: ds.Categories(), TrainMaxIter: 3, Restarts: 1, Seed: 13}

	// Two blank loopback shardd handlers.
	addrs := make([]string, 2)
	for i := range addrs {
		srv, err := shardrpc.NewServer(i, len(addrs))
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hs := srv.NewHTTPServer(ln.Addr().String())
		go hs.Serve(ln) //nolint:errcheck
		t.Cleanup(func() { hs.Close() })
		addrs[i] = ln.Addr().String()
	}

	single := New(cfg)
	remote := Open(cfg, WithRemoteShards(addrs...))
	if remote.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", remote.Shards())
	}
	if err := single.TrainDataset(ds, 1.0/3); err != nil {
		t.Fatalf("train single: %v", err)
	}
	if err := remote.TrainDataset(ds, 1.0/3); err != nil {
		t.Fatalf("train remote (handoff): %v", err)
	}

	ctx := context.Background()
	items := ds.Items()
	for _, v := range items[len(items)-4:] {
		want, werr := single.RecommendCtx(ctx, v, WithK(10))
		got, gerr := remote.RecommendCtx(ctx, v, WithK(10))
		if werr != nil || gerr != nil {
			t.Fatalf("item %s: errs %v / %v", v.ID, werr, gerr)
		}
		if !reflect.DeepEqual(got.Recommendations, want.Recommendations) {
			t.Fatalf("item %s: remote deployment diverged\n got %v\nwant %v",
				v.ID, got.Recommendations, want.Recommendations)
		}
	}

	// Batched ingestion replicates with a matching report.
	obs := []Observation{
		{UserID: "ru1", Item: items[0], Timestamp: items[0].Timestamp + 1},
		{UserID: "", Item: items[1], Timestamp: items[1].Timestamp + 1}, // rejected
	}
	want, werr := single.ObserveBatch(ctx, obs)
	got, gerr := remote.ObserveBatch(ctx, obs)
	if werr != nil || gerr != nil {
		t.Fatalf("observe errs: %v / %v", werr, gerr)
	}
	if got.Applied != want.Applied || got.Rejected != want.Rejected || got.Flushed != want.Flushed {
		t.Fatalf("report %+v, want %+v", got, want)
	}
	if len(got.Errors) != 1 || !errors.Is(got.Errors[0].Err, ErrInvalidObservation) {
		t.Fatalf("per-entry errors = %+v", got.Errors)
	}
}
