package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ssrec/internal/dataset"
	"ssrec/internal/model"
)

// streamEngine bootstraps a small engine on a generated stream and
// returns it together with the held-out items/interactions for replay.
func streamEngine(t testing.TB, cfg Config) (*Engine, []model.Item, []model.Interaction) {
	t.Helper()
	ds := dataset.Generate(dataset.YTubeConfig(0.1))
	cfg.Categories = ds.Categories
	if cfg.TrainMaxIter == 0 {
		cfg.TrainMaxIter = 3
	}
	if cfg.Restarts == 0 {
		cfg.Restarts = 1
	}
	e := New(cfg)
	n := len(ds.Interactions) / 3
	if err := e.Train(ds.Items, ds.Interactions[:n], ds.Item); err != nil {
		t.Fatalf("Train: %v", err)
	}
	return e, ds.Items, ds.Interactions[n:]
}

// TestConcurrentRecommendObserve hammers overlapping Recommend calls
// against concurrent Observe/FlushUpdates writers — the contract the
// RWMutex serves. At parallelism p the interaction stream is split
// round-robin over p writers, so p > 1 also contends writer against
// writer. Run with -race.
func TestConcurrentRecommendObserve(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
			e, items, irs := streamEngine(t, Config{UpdateBatch: 4})
			byID := make(map[string]model.Item, len(items))
			for _, v := range items {
				byID[v.ID] = v
			}
			const readers = 6
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := r; i < len(items); i += readers {
						recs := e.Recommend(items[i], 10)
						for j := 1; j < len(recs); j++ {
							if model.ByScoreDesc(recs[j], recs[j-1]) {
								t.Errorf("unsorted result under concurrency: %v", recs)
								return
							}
						}
					}
				}(r)
			}
			for w := 0; w < parallelism; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(irs); i += parallelism {
						if v, ok := byID[irs[i].ItemID]; ok {
							e.Observe(irs[i], v)
						}
						if i%50 == 0 {
							e.FlushUpdates()
							e.Users()
							e.IndexStats()
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestParallelismConfigEquivalence: the deprecated Config.Parallelism
// still rides in snapshots but changes nothing. Snapshots of one engine
// saved with Parallelism 0 and 8 load with the field intact and answer
// the replayed stream bit-identically.
func TestParallelismConfigEquivalence(t *testing.T) {
	src, items, irs := streamEngine(t, Config{})
	var engs []*Engine
	for _, p := range []int{0, 8} {
		src.cfg.Parallelism = p
		var buf bytes.Buffer
		if err := src.SaveTo(&buf); err != nil {
			t.Fatalf("SaveTo: %v", err)
		}
		e, err := LoadFrom(&buf)
		if err != nil {
			t.Fatalf("LoadFrom: %v", err)
		}
		if e.cfg.Parallelism != p {
			t.Fatalf("snapshot saved with Parallelism %d loaded %d", p, e.cfg.Parallelism)
		}
		engs = append(engs, e)
	}
	byID := make(map[string]model.Item, len(items))
	for _, v := range items {
		byID[v.ID] = v
	}
	checked := 0
	for i, ir := range irs {
		v, ok := byID[ir.ItemID]
		if !ok {
			continue
		}
		if i%7 == 0 {
			a, b := engs[0].Recommend(v, 10), engs[1].Recommend(v, 10)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("item %s: Parallelism 0 and 8 snapshots diverged\n  0: %v\n  8: %v", v.ID, a, b)
			}
			checked++
		}
		for _, e := range engs {
			e.Observe(ir, v)
		}
	}
	if checked == 0 {
		t.Fatal("no items checked")
	}
}
