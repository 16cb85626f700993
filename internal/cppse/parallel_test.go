package cppse

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ssrec/internal/model"
	"ssrec/internal/profile"
	"ssrec/internal/ranking"
	"ssrec/internal/sigtree"
)

// shardIndexes builds one fixture as an unsharded index plus n indexes
// that each own one user shard (model.ShardOf), as the engines of an
// n-shard deployment do. All of them read the same profile store.
func shardIndexes(t testing.TB, nPerCohort, n int) (*Index, []*Index, *profile.Store) {
	t.Helper()
	store, bg, cats := fixture(t, nPerCohort)
	probs := MLEProbs{Store: store, NCats: len(cats)}
	build := func(owns func(string) bool) *Index {
		ix, err := Build(store, bg, probs, Config{Categories: cats, Owns: owns})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return ix
	}
	full := build(nil)
	shards := make([]*Index, n)
	for i := range shards {
		shards[i] = build(func(u string) bool { return model.ShardOf(u, n) == i })
	}
	return full, shards, store
}

// recommendScattered answers q as the shard router does: one concurrent
// RecommendBound leg per shard index, all pruning against one shared
// bound, the per-shard lists folded by sigtree.MergeTopK.
func recommendScattered(t testing.TB, shards []*Index, q ranking.ItemQuery, k int) []model.Recommendation {
	t.Helper()
	b := sigtree.NewBound()
	lists := make([][]model.Recommendation, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, ix := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lists[i], _, errs[i] = ix.RecommendBound(context.Background(), q, k, b)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("RecommendBound: %v", err)
	}
	return sigtree.MergeTopK(k, lists...)
}

// TestRecommendParallelEquivalence asserts that concurrent RecommendBound
// legs over the user shards of one fixture, sharing one bound, merge to
// the no-pruning RecommendScan answer of the unsharded index: the same
// users, scores and tie-break order at every shard count.
func TestRecommendParallelEquivalence(t *testing.T) {
	queries := []model.Item{
		sportsItem(0),
		sportsItem(3),
		{ID: "m", Category: "music", Producer: "music-up1",
			Entities: []string{"music-e0", "music-e4"}},
		{ID: "n", Category: "news", Producer: "sports-up2",
			Entities: []string{"news-e2", "sports-e3"}},
	}
	for _, n := range []int{1, 2, 4} {
		full, shards, _ := shardIndexes(t, 20, n)
		for qi, v := range queries {
			q := ranking.BuildQuery(v, nil)
			for _, k := range []int{1, 5, 30, 500} {
				want := full.RecommendScan(q, k)
				if got := recommendScattered(t, shards, q, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d k=%d shards=%d:\n got %v\nwant %v", qi, k, n, got, want)
				}
			}
		}
	}
}

// TestRecommendEncoderReuse hammers one index with distinct interleaved
// queries so the pooled scratch encoder is exercised across shapes: every
// repetition of the same query must give bit-identical results.
func TestRecommendEncoderReuse(t *testing.T) {
	ix, _, _ := buildIndex(t, 15, Config{})
	type ref struct {
		q    ranking.ItemQuery
		want []model.Recommendation
	}
	var refs []ref
	for i := 0; i < 6; i++ {
		cat := []string{"sports", "music", "news"}[i%3]
		v := model.Item{ID: fmt.Sprintf("q%d", i), Category: cat,
			Producer: fmt.Sprintf("%s-up%d", cat, i%3),
			Entities: []string{fmt.Sprintf("%s-e%d", cat, i%6), fmt.Sprintf("%s-e%d", cat, (i+2)%6)}}
		q := ranking.BuildQuery(v, nil)
		want, _ := ix.Recommend(q, 10)
		refs = append(refs, ref{q, want})
	}
	for round := 0; round < 20; round++ {
		r := refs[round%len(refs)]
		got, _ := ix.Recommend(r.q, 10)
		if !reflect.DeepEqual(got, r.want) {
			t.Fatalf("round %d: scratch reuse changed results\n got %v\nwant %v", round, got, r.want)
		}
	}
}

// TestRecommendAfterUpdateParallel checks the maintenance path (Algorithm
// 2) composes with the shared-bound query: after a user update reaches
// every shard index, the scattered answer matches the unsharded scan.
func TestRecommendAfterUpdateParallel(t *testing.T) {
	full, shards, store := shardIndexes(t, 10, 4)
	p := store.Get("newbie")
	for i := 0; i < 8; i++ {
		p.Observe(profile.Event{Category: "sports", Producer: fmt.Sprintf("sports-up%d", i%3),
			Entities: []string{fmt.Sprintf("sports-e%d", i%6)}})
	}
	for _, ix := range append([]*Index{full}, shards...) {
		if err := ix.UpdateUser("newbie"); err != nil {
			t.Fatalf("UpdateUser: %v", err)
		}
	}
	q := ranking.BuildQuery(sportsItem(1), nil)
	got := recommendScattered(t, shards, q, 10)
	want := full.RecommendScan(q, 10)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-update scattered mismatch:\n got %v\nwant %v", got, want)
	}
}

// BenchmarkRecommendAllocs pins the allocation profile of the full index
// hot path (lookup + encode + search).
func BenchmarkRecommendAllocs(b *testing.B) {
	ix, _, _ := buildIndex(b, 200, Config{})
	q := ranking.BuildQuery(sportsItem(0), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Recommend(q, 30)
	}
}
