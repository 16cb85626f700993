// Command ssrec-bench regenerates every table and figure of the paper's
// evaluation section (Zhou et al., ICDE 2019, §VI) plus the ablations, and
// prints the rows in the order the paper reports them.
//
// Usage:
//
//	ssrec-bench                     # run everything at the default scale
//	ssrec-bench -exp fig8,fig10     # selected experiments
//	ssrec-bench -scale 1.0          # larger datasets (slower, sharper shapes)
//	ssrec-bench -quick              # coarse grids for a fast pass
//
// Serving speed is measured by the repository benchmark, not here:
//
//	bash bench/run.sh --workload query-10k   # or ingest-10k, fleet-5k
//
// and the write path's refresh cost by the Go benchmarks:
//
//	go test -run xxx -bench 'BenchmarkRefresh|BenchmarkObserveBatchBiHMM' -benchmem ./internal/cppse ./internal/core
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ssrec/internal/experiments"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiments: table2,table3,fig5,fig6,fig7,fig8,fig9,fig10,fig11,ablations")
		scale     = flag.Float64("scale", 0.5, "dataset scale factor")
		seed      = flag.Int64("seed", 42, "base random seed")
		quick     = flag.Bool("quick", false, "coarse parameter grids and item caps")
		fig67Data = flag.String("sweepdata", "YTube", "dataset for the fig6/fig7 sweeps (YTube or MLens)")
	)
	flag.Parse()

	o := experiments.Options{Scale: *scale, Seed: *seed, Quick: *quick, Ks: []int{5, 10, 20, 30}}
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	run := func(name string) bool { return all || want[name] }
	start := time.Now()

	if run("table2") {
		section("Table II — user-profile signature size vs user block count (YTube)")
		for _, r := range experiments.Table2(o) {
			fmt.Printf("  blocks=%-3d maxEntityNum=%-6d maxProducerNum=%d\n", r.Blocks, r.MaxEntity, r.MaxProducer)
		}
	}
	if run("table3") {
		section("Table III — overview of datasets")
		for _, s := range experiments.Table3(o) {
			fmt.Printf("  %s\n", s)
		}
	}
	if run("fig5") {
		section("Fig. 5 — BiHMM vs HMM prediction accuracy, grouped by optimal hidden states")
		for _, r := range experiments.Fig5(o) {
			fmt.Printf("  %-9s states=%d users=%-3d HMM=%.3f BiHMM=%.3f\n",
				r.Dataset, r.States, r.Users, r.HMM, r.BiHMM)
		}
	}
	if run("fig6") {
		section(fmt.Sprintf("Fig. 6 — effect of short-term window size |W| (%s, best λs per point)", *fig67Data))
		for _, r := range experiments.Fig6(o, *fig67Data) {
			fmt.Printf("  |W|=%-3.0f %s\n", r.X, experiments.FormatPAtK(r.PAtK, o.Ks))
		}
	}
	if run("fig7") {
		section(fmt.Sprintf("Fig. 7 — effect of short-term weight λs (%s, |W|=5)", *fig67Data))
		for _, r := range experiments.Fig7(o, *fig67Data) {
			fmt.Printf("  λs=%-5.2f %s\n", r.X, experiments.FormatPAtK(r.PAtK, o.Ks))
		}
	}
	if run("fig8") {
		section("Fig. 8 — effectiveness comparison (CTT / UCD / ssRec-ne / ssRec)")
		for _, r := range experiments.Fig8(o) {
			fmt.Printf("  %-9s %-9s %s\n", r.Dataset, r.System, experiments.FormatPAtK(r.PAtK, o.Ks))
		}
	}
	if run("fig9") {
		section("Fig. 9 — effect of user profile updates (ssRec-nu vs ssRec)")
		for _, r := range experiments.Fig9(o) {
			fmt.Printf("  %-9s %-9s %s\n", r.Dataset, r.System, experiments.FormatPAtK(r.PAtK, o.Ks))
		}
	}
	if run("fig10") {
		section("Fig. 10 — per-item response time vs number of partitions (k=30)")
		for _, r := range experiments.Fig10(o) {
			fmt.Printf("  %-9s %-12s partitions=%d perItem=%v\n", r.Dataset, r.System, r.Partitions, r.PerItem)
		}
	}
	if run("fig11") {
		section("Fig. 11 — cumulative index update cost vs update size")
		for _, r := range experiments.Fig11(o) {
			fmt.Printf("  %-9s partitions=%d total=%v\n", r.Dataset, r.Partitions, r.Total)
		}
	}
	if run("ablations") {
		section("Ablation — upper-bound pruning (Alg. 1) vs full candidate scan")
		fmt.Printf("  %s\n", experiments.AblationPruning(o))
		section("Ablation — user block count vs tree width and query latency")
		for _, r := range experiments.AblationBlocks(o) {
			fmt.Printf("  %s\n", r)
		}
		section("Ablation — shift-add-xor chained hash table vs Go map")
		fmt.Printf("  %s\n", experiments.AblationHash(o))
		section("Ablation — entity expansion cost and effectiveness")
		for _, r := range experiments.AblationExpansion(o) {
			fmt.Printf("  %s\n", r)
		}
	}

	fmt.Fprintf(os.Stderr, "\ntotal: %v (scale=%.2f quick=%v)\n", time.Since(start).Round(time.Millisecond), *scale, *quick)
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}
