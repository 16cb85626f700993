package sigtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ssrec/internal/model"
)

// scatter is the cross-shard query protocol in one process: the trees are
// dealt round-robin to parts legs that search concurrently against one
// shared Bound, and MergeTopK folds the legs' lists. It is what
// shard.Router does with one leg per shard.
func scatter(tqs []TreeQuery, k, parts int) []model.Recommendation {
	legs := make([][]TreeQuery, parts)
	for i, tq := range tqs {
		legs[i%parts] = append(legs[i%parts], tq)
	}
	b := NewBound()
	lists := make([][]model.Recommendation, parts)
	var wg sync.WaitGroup
	for i := range legs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lists[i], _, _ = SearchCtx(nil, legs[i], k, b)
		}()
	}
	wg.Wait()
	return MergeTopK(k, lists...)
}

// tieForest puts one signature under 48 user IDs in four trees, so every
// score ties and the answer is decided by user-ID order alone.
func tieForest() []TreeQuery {
	rng := rand.New(rand.NewSource(5))
	shared := randomSignature(4, 6, rng)
	q := randomQuery(4, 6, rng)
	var tqs []TreeQuery
	for b := 0; b < 4; b++ {
		prod := NewUniverse([]string{"p0", "p1", "p2", "p3"})
		ent := NewUniverse([]string{"e0", "e1", "e2", "e3", "e4", "e5"})
		tr := New(b, "c", prod, ent, 4)
		for i := 0; i < 12; i++ {
			tr.Insert(fmt.Sprintf("t%02du%02d", b, i), shared.Clone())
		}
		tqs = append(tqs, TreeQuery{Tree: tr, Query: q})
	}
	return tqs
}

// TestSearchParallelEquivalence: concurrent legs over disjoint tree
// subsets, pruning against one shared bound and merged with MergeTopK,
// return bit-identical users, scores and tie-break order to Search and
// SequentialScan over the whole forest, for any number of legs.
func TestSearchParallelEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 99} {
		tqs := buildForest(t, 7, 60, seed)
		for _, k := range []int{1, 5, 10, 30, 1000} {
			want, _ := Search(tqs, k)
			if scan := SequentialScan(tqs, k); !reflect.DeepEqual(want, scan) {
				t.Fatalf("seed %d k=%d: Search != SequentialScan", seed, k)
			}
			for _, p := range []int{1, 2, 8} {
				if got := scatter(tqs, k, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d k=%d legs=%d:\n got %v\nwant %v", seed, k, p, got, want)
				}
			}
		}
	}
}

// TestSearchParallelTieBreaking: when every score ties, the merged answer
// of concurrent legs is the user-ID-ascending prefix, as Search's is.
func TestSearchParallelTieBreaking(t *testing.T) {
	tqs := tieForest()
	want, _ := Search(tqs, 10)
	for _, p := range []int{2, 4, 8} {
		if got := scatter(tqs, 10, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("legs=%d tie-break mismatch:\n got %v\nwant %v", p, got, want)
		}
	}
	for i := 1; i < len(want); i++ {
		if want[i-1].UserID >= want[i].UserID {
			t.Fatalf("tie order not user-ID ascending: %v", want)
		}
	}
}

// TestSearchParallelDegenerate covers no trees, an empty tree, and more
// legs than trees (legs with nothing to search).
func TestSearchParallelDegenerate(t *testing.T) {
	if got := scatter(nil, 5, 4); len(got) != 0 {
		t.Fatalf("results from empty input: %v", got)
	}
	empty := New(0, "c", NewUniverse(nil), NewUniverse(nil), 4)
	tqs := []TreeQuery{{Tree: empty, Query: &Query{Mu: 10, ProdIdx: -1}}}
	if got := scatter(tqs, 5, 8); len(got) != 0 {
		t.Fatalf("results from empty tree: %v", got)
	}
	full := buildForest(t, 3, 20, 11)
	want, _ := Search(full, 5)
	if got := scatter(full, 5, 64); !reflect.DeepEqual(got, want) {
		t.Fatalf("more legs than trees mismatch:\n got %v\nwant %v", got, want)
	}
}
