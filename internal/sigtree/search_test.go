package sigtree

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"ssrec/internal/model"
)

// buildForest builds nTrees trees of nUsers each with per-tree queries:
// the multi-tree candidate set one item query searches.
func buildForest(t testing.TB, nTrees, nUsers int, seed int64) []TreeQuery {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var tqs []TreeQuery
	for b := 0; b < nTrees; b++ {
		prod := NewUniverse([]string{"p0", "p1", "p2", "p3"})
		ent := NewUniverse([]string{"e0", "e1", "e2", "e3", "e4", "e5"})
		tr := New(b, "c", prod, ent, 6)
		for i := 0; i < nUsers; i++ {
			tr.Insert(fmt.Sprintf("b%02du%04d", b, i), randomSignature(4, 6, rng))
		}
		tqs = append(tqs, TreeQuery{Tree: tr, Query: randomQuery(4, 6, rng)})
	}
	return tqs
}

// legalBounds returns ascending values an external bound may take while a
// top-k search runs: the exact k-th score and random values below it. Each
// is at most a k-th best score some other shard could have published, so
// none may change the answer.
func legalBounds(rng *rand.Rand, want []model.Recommendation, kth float64) []float64 {
	lo := kth - 1 - (want[0].Score - kth)
	vals := []float64{lo, kth}
	for i := 0; i < 6; i++ {
		vals = append(vals, lo+rng.Float64()*(kth-lo))
	}
	sort.Float64s(vals)
	return vals
}

// TestSearchExternalBound runs RunCtx against a Bound it does not own, the
// way a shard searches under the router's bound. Pre-raised to any value
// at or below the exact k-th score, or raised through such values by a
// second goroutine while the search runs, the bound may only save work:
// the answer stays bit-identical to SequentialScan, ties included. CI
// runs it under -race with -count=50 so the raises land at varied points.
func TestSearchExternalBound(t *testing.T) {
	forests := [][]TreeQuery{tieForest()}
	for _, seed := range []int64{1, 7, 23} {
		forests = append(forests, buildForest(t, 7, 200, seed))
	}
	rng := rand.New(rand.NewSource(41))
	ctx := context.Background()
	s := NewSearcher()
	for fi, tqs := range forests {
		for _, k := range []int{1, 5, 10, 30} {
			want := SequentialScan(tqs, k)
			if len(want) < k {
				t.Fatalf("forest %d has fewer than %d users", fi, k)
			}
			kth := want[k-1].Score
			vals := legalBounds(rng, want, kth)
			for _, v := range vals {
				b := NewBound()
				b.Raise(v)
				got, _, err := s.RunCtx(ctx, tqs, k, b)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("forest %d k=%d bound pre-raised to %v (k-th %v): err %v\n got %v\nwant %v", fi, k, v, kth, err, got, want)
				}
				if b.Load() != kth {
					t.Fatalf("forest %d k=%d: search left the bound at %v, want the k-th score %v", fi, k, b.Load(), kth)
				}
			}

			b := NewBound()
			ready, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				close(ready)
				for _, v := range vals {
					b.Raise(v)
					runtime.Gosched()
				}
			}()
			<-ready
			got, _, err := s.RunCtx(ctx, tqs, k, b)
			<-done
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("forest %d k=%d bound raised concurrently: err %v\n got %v\nwant %v", fi, k, err, got, want)
			}
		}
	}
}

// TestSearchZeroAlloc pins the zero-allocation contract of the query
// core: steady-state Search allocates only the result slice.
func TestSearchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tqs := buildForest(t, 4, 200, 13)
	Search(tqs, 10) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		Search(tqs, 10)
	})
	if allocs > 2 {
		t.Fatalf("Search allocates %.1f objects/op, want <= 2 (result slice only)", allocs)
	}
}

func TestSearcherReuse(t *testing.T) {
	// One Searcher across differently-shaped runs must match fresh runs.
	s := NewSearcher()
	for _, seed := range []int64{3, 4} {
		tqs := buildForest(t, 5, 40, seed)
		for _, k := range []int{3, 17} {
			got, _ := s.Run(tqs, k, nil)
			want, _ := Search(tqs, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d k=%d: reused Searcher diverged", seed, k)
			}
		}
	}
}

// BenchmarkSearchForest is one query over 16 candidate trees of 2 000
// users each.
func BenchmarkSearchForest(b *testing.B) {
	tqs := buildForest(b, 16, 2000, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Search(tqs, 30)
	}
}
