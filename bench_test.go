// bench_test.go holds one testing.B benchmark per table and figure of the
// paper's evaluation (Zhou et al., ICDE 2019, §VI), plus the ablation
// benches DESIGN.md calls out. Each benchmark times the experiment at
// benchmark scale and prints the regenerated rows once, so
//
//	go test -bench=. -benchmem
//
// reproduces every reported series. cmd/ssrec-bench runs the same
// experiments at full protocol scale with nicer formatting.
package ssrec

import (
	"fmt"
	"sync"
	"testing"

	"ssrec/internal/experiments"
)

// benchOpts runs the experiments at the smallest scale where the paper's
// qualitative shapes (system ordering, latency gap, parameter optima) are
// stable; cmd/ssrec-bench raises the scale for the full protocol.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.3, Seed: 42, Quick: true, Ks: []int{5, 10, 20, 30}}
}

var printedMu sync.Mutex
var printed = map[string]bool{}

// printOnce emits an experiment's rows exactly once per test binary run.
func printOnce(name string, f func()) {
	printedMu.Lock()
	defer printedMu.Unlock()
	if printed[name] {
		return
	}
	printed[name] = true
	fmt.Printf("\n--- %s ---\n", name)
	f()
}

func BenchmarkTable2SignatureSize(b *testing.B) {
	o := benchOpts()
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2(o)
	}
	b.StopTimer()
	printOnce("Table II: signature size vs user blocks", func() {
		for _, r := range rows {
			fmt.Printf("blocks=%-3d maxEntity=%-5d maxProducer=%d\n", r.Blocks, r.MaxEntity, r.MaxProducer)
		}
	})
}

func BenchmarkTable3DatasetOverview(b *testing.B) {
	o := benchOpts()
	var rows []fmt.Stringer
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, s := range experiments.Table3(o) {
			rows = append(rows, s)
		}
	}
	b.StopTimer()
	printOnce("Table III: dataset overview", func() {
		for _, r := range rows {
			fmt.Println(r)
		}
	})
}

func BenchmarkFig5BiHMMvsHMM(b *testing.B) {
	o := benchOpts()
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig5(o)
	}
	b.StopTimer()
	printOnce("Fig 5: BiHMM vs HMM accuracy by optimal state count", func() {
		for _, r := range rows {
			fmt.Printf("%-9s states=%d users=%-3d HMM=%.3f BiHMM=%.3f\n",
				r.Dataset, r.States, r.Users, r.HMM, r.BiHMM)
		}
	})
}

func BenchmarkFig6WindowSize(b *testing.B) {
	o := benchOpts()
	var rows []experiments.SweepRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig6(o, "YTube")
	}
	b.StopTimer()
	printOnce("Fig 6: effect of short-term window size |W| (YTube)", func() {
		for _, r := range rows {
			fmt.Printf("|W|=%-3.0f %s\n", r.X, experiments.FormatPAtK(r.PAtK, o.Ks))
		}
	})
}

func BenchmarkFig7LambdaS(b *testing.B) {
	o := benchOpts()
	var rows []experiments.SweepRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig7(o, "YTube")
	}
	b.StopTimer()
	printOnce("Fig 7: effect of short-term weight λs (YTube, |W|=5)", func() {
		for _, r := range rows {
			fmt.Printf("λs=%-5.2f %s\n", r.X, experiments.FormatPAtK(r.PAtK, o.Ks))
		}
	})
}

func BenchmarkFig8Effectiveness(b *testing.B) {
	o := benchOpts()
	var rows []experiments.SystemRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig8(o)
	}
	b.StopTimer()
	printOnce("Fig 8: effectiveness comparison (CTT / UCD / ssRec-ne / ssRec)", func() {
		for _, r := range rows {
			fmt.Printf("%-9s %-9s %s\n", r.Dataset, r.System, experiments.FormatPAtK(r.PAtK, o.Ks))
		}
	})
}

func BenchmarkFig9ProfileUpdates(b *testing.B) {
	o := benchOpts()
	var rows []experiments.SystemRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig9(o)
	}
	b.StopTimer()
	printOnce("Fig 9: effect of user profile updates (ssRec-nu vs ssRec)", func() {
		for _, r := range rows {
			fmt.Printf("%-9s %-9s %s\n", r.Dataset, r.System, experiments.FormatPAtK(r.PAtK, o.Ks))
		}
	})
}

func BenchmarkFig10Efficiency(b *testing.B) {
	o := benchOpts()
	var rows []experiments.LatencyRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig10(o)
	}
	b.StopTimer()
	printOnce("Fig 10: per-item response time vs partitions (k=30)", func() {
		for _, r := range rows {
			fmt.Printf("%-9s %-12s partitions=%d perItem=%v\n", r.Dataset, r.System, r.Partitions, r.PerItem)
		}
	})
}

func BenchmarkFig11UpdateCost(b *testing.B) {
	o := benchOpts()
	var rows []experiments.UpdateRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig11(o)
	}
	b.StopTimer()
	printOnce("Fig 11: cumulative index update cost vs update size", func() {
		for _, r := range rows {
			fmt.Printf("%-9s partitions=%d total=%v\n", r.Dataset, r.Partitions, r.Total)
		}
	})
}

// benchRecommender memoizes one trained engine so the query benchmarks
// don't retrain per run.
var benchRec *Recommender
var benchQueries []Item
var benchRecMu sync.Mutex

func benchRecommender(b *testing.B) (*Recommender, []Item) {
	b.Helper()
	benchRecMu.Lock()
	defer benchRecMu.Unlock()
	if benchRec == nil {
		ds := GenerateYTubeLike(0.5, 42)
		rec := New(Config{Categories: ds.Categories(), TrainMaxIter: 5, Restarts: 1, Seed: 42})
		if err := rec.TrainDataset(ds, 1.0/3); err != nil {
			b.Fatalf("train: %v", err)
		}
		items := ds.Items()
		for _, v := range items {
			rec.RegisterItem(v)
		}
		benchRec, benchQueries = rec, items[len(items)-200:]
	}
	return benchRec, benchQueries
}

// BenchmarkRecommend is the per-item recommendation time (k=30) of one
// serial query; allocations stay flat (the query core is
// allocation-free).
func BenchmarkRecommend(b *testing.B) {
	rec, queries := benchRecommender(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Recommend(queries[i%len(queries)], 30)
	}
}

// BenchmarkRecommendThroughput measures concurrent serving: b.RunParallel
// issues overlapping Recommend calls against the engine's read-locked
// query path (sequential per-query core, concurrency across requests).
func BenchmarkRecommendThroughput(b *testing.B) {
	rec, queries := benchRecommender(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			rec.Recommend(queries[i%len(queries)], 30)
			i++
		}
	})
}

func BenchmarkAblationPruning(b *testing.B) {
	o := benchOpts()
	var row experiments.PruningRow
	for i := 0; i < b.N; i++ {
		row = experiments.AblationPruning(o)
	}
	b.StopTimer()
	printOnce("Ablation: upper-bound pruning (Alg. 1) vs full scan", func() {
		fmt.Println(row)
	})
}

func BenchmarkAblationBlocks(b *testing.B) {
	o := benchOpts()
	var rows []experiments.BlocksRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationBlocks(o)
	}
	b.StopTimer()
	printOnce("Ablation: user block count vs tree width and latency", func() {
		for _, r := range rows {
			fmt.Println(r)
		}
	})
}

func BenchmarkAblationHash(b *testing.B) {
	o := benchOpts()
	var row experiments.HashRow
	for i := 0; i < b.N; i++ {
		row = experiments.AblationHash(o)
	}
	b.StopTimer()
	printOnce("Ablation: shift-add-xor chained table vs Go map", func() {
		fmt.Println(row)
	})
}

func BenchmarkAblationExpansion(b *testing.B) {
	o := benchOpts()
	var rows []experiments.ExpansionRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationExpansion(o)
	}
	b.StopTimer()
	printOnce("Ablation: entity expansion cost and effectiveness", func() {
		for _, r := range rows {
			fmt.Println(r)
		}
	})
}
