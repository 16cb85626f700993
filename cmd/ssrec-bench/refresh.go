// refresh.go is the index-refresh micro-benchmark mode of ssrec-bench: it
// measures the write-path cost of keeping the CPPse-index consistent with
// a mutating profile — the per-flush work roll gating cuts —
// through the same scenario family as the internal/cppse benchmarks, but
// runnable standalone (and in CI) with a JSON artifact:
//
//	ssrec-bench -refresh -json refresh.json
//
// Scenarios:
//
//	cold_user        first refresh of a brand-new user (block assignment
//	                 plus leaf inserts) — cost roll gating cannot avoid
//	one_dirty_masked one observation in ONE of the user's categories,
//	                 gated refresh: restamp all leaves, rebuild them (and
//	                 grow the universes) only when the window rolls, one
//	                 observation in five
//	one_dirty_full   the same stream through the rebuild-everything path —
//	                 the before/after axis of roll gating
//	window_roll      the gated refresh over a stream that cycles through
//	                 all three categories, starting from a full window:
//	                 the first observation of every five rolls it and
//	                 rebuilds every leaf, the other four restamp
//	one_dirty_masked_wide
//	                 one_dirty_masked over one block whose producer
//	                 universe is 600 wide, the width of a ytube-10k block:
//	                 the cost of aggregate maintenance in the signature
//	                 trees scales with that width, which the three-producer
//	                 fixture of the other scenarios cannot show
//	engine_batch64   core.Engine.ObserveBatch of 64 observations on a
//	                 trained BiHMM engine at the ytube shape (19
//	                 categories): the only row whose index predicts from
//	                 the BiHMM rather than cppse.MLEProbs, so the only one
//	                 that prices the prediction refresh of every touched
//	                 user alongside its leaf rebuilds
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/cppse"
	"ssrec/internal/dataset"
	"ssrec/internal/profile"
)

// refreshScenario is one measured row of the refresh family.
type refreshScenario struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	Users       int     `json:"users"` // users in the scenario's fixture
	// ProdUniverse is the width of the producer universe of the refreshed
	// user's block: the length of every producer vector a refresh folds.
	ProdUniverse int `json:"prod_universe"`
}

// refreshReport is the JSON artifact of -refresh.
type refreshReport struct {
	Bench      string `json:"bench"`
	GoMaxProcs int    `json:"gomaxprocs"`
	hostInfo
	Users      int               `json:"users"` // users in the three-producer fixture
	WindowSize int               `json:"window_size"`
	Scenarios  []refreshScenario `json:"scenarios"`
}

// hostInfo pins the run environment in the artifact (a timing without its
// core count is not comparable): scheduler width, physical core count,
// and the GC's view of the run.
type hostInfo struct {
	NumCPU         int    `json:"num_cpu"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
}

// captureHostInfo snapshots the environment; call it AFTER the measured
// section so the heap/GC numbers describe the run, not the startup.
func captureHostInfo() hostInfo {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostInfo{
		NumCPU:         runtime.NumCPU(),
		HeapAllocBytes: ms.HeapAlloc,
		GCPauseTotalNs: ms.PauseTotalNs,
	}
}

// refreshShape sizes refreshFixture: nPerCohort users per cohort; user c's
// i-th event goes to producer (i+c) mod prodsPerCat of its category, so
// with enough users every producer is seen; fixedBlocks > 0 forces that
// many user blocks (cppse.Config.FixedBlocks), 0 keeps the default
// clustering.
type refreshShape struct{ nPerCohort, prodsPerCat, fixedBlocks int }

// refreshFixture builds a three-cohort store (the internal/cppse test
// fixture's shape, scaled) and an index over it.
func refreshFixture(shape refreshShape) (*cppse.Index, *profile.Store) {
	cats := []string{"sports", "music", "news"}
	store := profile.NewStore(5)
	mkEvent := func(cat string, i int) profile.Event {
		return profile.Event{
			Category: cat,
			Producer: fmt.Sprintf("%s-up%d", cat, i%shape.prodsPerCat),
			Entities: []string{fmt.Sprintf("%s-e%d", cat, i%8)},
		}
	}
	for c := 0; c < shape.nPerCohort; c++ {
		sports := store.Get(fmt.Sprintf("sports%03d", c))
		music := store.Get(fmt.Sprintf("music%03d", c))
		mixed := store.Get(fmt.Sprintf("mixed%03d", c))
		for i := 0; i < 20; i++ {
			sports.ObserveLongTerm(mkEvent("sports", i+c))
			music.ObserveLongTerm(mkEvent("music", i+c))
			if i%2 == 0 {
				mixed.ObserveLongTerm(mkEvent("sports", i+c))
			} else {
				mixed.ObserveLongTerm(mkEvent("news", i+c))
			}
		}
	}
	bg := profile.NewBackground(nil, 10)
	probs := cppse.MLEProbs{Store: store}
	ix, err := cppse.Build(store, bg, probs, cppse.Config{Categories: cats, FixedBlocks: shape.fixedBlocks})
	if err != nil {
		fmt.Fprintf(os.Stderr, "refresh: build index: %v\n", err)
		os.Exit(1)
	}
	return ix, store
}

// mixedRefreshEvent cycles through the three fixture categories.
func mixedRefreshEvent(i int) profile.Event {
	cats := []string{"sports", "music", "news"}
	cat := cats[i%3]
	return profile.Event{
		Category: cat,
		Producer: fmt.Sprintf("%s-up%d", cat, i%3),
		Entities: []string{fmt.Sprintf("%s-e%d", cat, i%8)},
	}
}

// inhabitAllCats gives the target user long-term history in all three
// fixture categories, so the one-dirty scenarios measure a user whose
// non-dirty leaves are real (the heavy-tailed steady state masks target).
func inhabitAllCats(p *profile.Profile) {
	for i := 0; i < 30; i++ {
		p.ObserveLongTerm(mixedRefreshEvent(i))
	}
}

// prodUniverseOf returns the width of the producer universe of userID's
// block (every fixture user inhabits "sports").
func prodUniverseOf(ix *cppse.Index, userID string) int {
	block, _ := ix.BlockOf(userID)
	if tr := ix.Tree(block, "sports"); tr != nil {
		return tr.Prod.Len()
	}
	return 0
}

// engineBatchScenario measures the engine_batch64 row: a BiHMM engine
// trained on the first third of a ytube-shaped stream ingests the rest in
// ObserveBatch calls of 64, cycling when the stream runs out.
func engineBatchScenario(fail func(error)) refreshScenario {
	const batch = 64
	cfg := dataset.YTubeConfig(0.3)
	cfg.Seed = 1
	ds := dataset.Generate(cfg)
	eng := core.New(core.Config{Categories: ds.Categories, Seed: cfg.Seed})
	nTrain := len(ds.Interactions) / 3
	if err := eng.Train(ds.Items, ds.Interactions[:nTrain], ds.Item); err != nil {
		fail(err)
	}
	var stream []core.Observation
	for _, ir := range ds.Interactions[nTrain:] {
		if v, ok := ds.Item(ir.ItemID); ok {
			stream = append(stream, core.Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
		}
	}
	if len(stream) < batch {
		fail(fmt.Errorf("engine_batch64: stream too short (%d observations)", len(stream)))
	}
	off := 0
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if off+batch > len(stream) {
				off = 0
			}
			if _, err := eng.ObserveBatch(context.Background(), stream[off:off+batch]); err != nil {
				fail(err)
			}
			off += batch
		}
	})
	row := refreshScenario{
		Name:        "engine_batch64",
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
		Users:       eng.Users(),
	}
	first := stream[0]
	if block, ok := eng.Index().BlockOf(first.UserID); ok {
		if tr := eng.Index().Tree(block, first.Item.Category); tr != nil {
			row.ProdUniverse = tr.Prod.Len()
		}
	}
	return row
}

func runRefresh(jsonPath string) {
	// narrow is the internal/cppse fixture's shape; wide puts 600 users in
	// one block over 3×200 producers.
	narrow := refreshShape{nPerCohort: 100, prodsPerCat: 3}
	wide := refreshShape{nPerCohort: 200, prodsPerCat: 200, fixedBlocks: 1}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "refresh: %v\n", err)
		os.Exit(1)
	}
	oneDirtyMasked := func(b *testing.B, ix *cppse.Index, store *profile.Store) {
		p, _ := store.Lookup("mixed000")
		inhabitAllCats(p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rolled := p.Observe(profile.Event{Category: "sports", Producer: "sports-up0",
				Entities: []string{fmt.Sprintf("sports-e%d", i%6)}})
			if err := ix.RefreshUser("mixed000", rolled); err != nil {
				fail(err)
			}
		}
	}

	scenarios := []struct {
		name  string
		shape refreshShape
		fn    func(b *testing.B, ix *cppse.Index, store *profile.Store)
	}{
		{"cold_user", narrow, func(b *testing.B, ix *cppse.Index, store *profile.Store) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := fmt.Sprintf("cold%06d", i)
				p := store.Get(id)
				for j := 0; j < 6; j++ {
					p.ObserveLongTerm(mixedRefreshEvent(j))
				}
				if err := ix.UpdateUser(id); err != nil {
					fail(err)
				}
			}
		}},
		{"one_dirty_masked", narrow, oneDirtyMasked},
		{"one_dirty_full", narrow, func(b *testing.B, ix *cppse.Index, store *profile.Store) {
			p, _ := store.Lookup("mixed000")
			inhabitAllCats(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Observe(profile.Event{Category: "sports", Producer: "sports-up0",
					Entities: []string{fmt.Sprintf("sports-e%d", i%6)}})
				if err := ix.UpdateUser("mixed000"); err != nil {
					fail(err)
				}
			}
		}},
		{"window_roll", narrow, func(b *testing.B, ix *cppse.Index, store *profile.Store) {
			p, _ := store.Lookup("mixed000")
			inhabitAllCats(p)
			// Fill the window so the first measured observation rolls it.
			for i := 0; i < p.WindowSize(); i++ {
				p.Observe(mixedRefreshEvent(i))
			}
			if err := ix.UpdateUser("mixed000"); err != nil {
				fail(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rolled := p.Observe(mixedRefreshEvent(i))
				if err := ix.RefreshUser("mixed000", rolled); err != nil {
					fail(err)
				}
			}
		}},
		{"one_dirty_masked_wide", wide, oneDirtyMasked},
	}

	rep := refreshReport{Bench: "refresh", Users: 3 * narrow.nPerCohort, WindowSize: 5}
	for _, sc := range scenarios {
		var ix *cppse.Index
		r := testing.Benchmark(func(b *testing.B) {
			var store *profile.Store
			ix, store = refreshFixture(sc.shape)
			sc.fn(b, ix, store)
		})
		row := refreshScenario{
			Name:         sc.name,
			NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:  r.AllocsPerOp(),
			BytesPerOp:   r.AllocedBytesPerOp(),
			Iterations:   r.N,
			Users:        3 * sc.shape.nPerCohort,
			ProdUniverse: prodUniverseOf(ix, "mixed000"),
		}
		rep.Scenarios = append(rep.Scenarios, row)
	}
	rep.Scenarios = append(rep.Scenarios, engineBatchScenario(fail))
	for _, row := range rep.Scenarios {
		fmt.Printf("refresh/%-21s %12.0f ns/op %8d B/op %6d allocs/op  (%d iterations, %d users, %d-wide producer universe)\n",
			row.Name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp, row.Iterations, row.Users, row.ProdUniverse)
	}

	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.hostInfo = captureHostInfo()
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
	}
}
