// Package experiments reproduces every table and figure of the evaluation
// section of Zhou et al. (ICDE 2019, §VI). Each experiment is a function
// returning typed rows; cmd/ssrec-bench prints them and bench_test.go wraps
// each in a testing.B benchmark. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ssrec/internal/baseline"
	"ssrec/internal/bihmm"
	"ssrec/internal/core"
	"ssrec/internal/cppse"
	"ssrec/internal/dataset"
	"ssrec/internal/evalx"
	"ssrec/internal/hmm"
	"ssrec/internal/profile"
)

// DatasetNames lists the four collections of Table III in report order.
var DatasetNames = []string{"YTube", "SynYTube", "MLens", "SynMLens"}

// Options tunes experiment cost. The zero value reproduces the full
// laptop-scale protocol; Quick shrinks grids and caps item counts for the
// benchmark suite.
type Options struct {
	Scale float64 // dataset scale factor (default 0.25)
	Seed  int64   // base seed (default 42)
	Quick bool    // coarser grids, fewer users/items
	Ks    []int   // precision cutoffs (default 5,10,20,30)
}

func (o *Options) fill() {
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if len(o.Ks) == 0 {
		o.Ks = []int{5, 10, 20, 30}
	}
}

// ---- dataset cache ----

var (
	dsMu    sync.Mutex
	dsCache = map[string]*dataset.Dataset{}
)

// Datasets builds (and caches) the four collections at the requested scale.
func Datasets(o Options) map[string]*dataset.Dataset {
	o.fill()
	dsMu.Lock()
	defer dsMu.Unlock()
	key := fmt.Sprintf("%.4f-%d", o.Scale, o.Seed)
	out := map[string]*dataset.Dataset{}
	get := func(name string, build func() *dataset.Dataset) *dataset.Dataset {
		ck := key + "-" + name
		if d := dsCache[ck]; d != nil {
			return d
		}
		d := build()
		dsCache[ck] = d
		return d
	}
	yt := get("YTube", func() *dataset.Dataset {
		cfg := dataset.YTubeConfig(o.Scale)
		cfg.Seed = o.Seed
		return dataset.Generate(cfg)
	})
	ml := get("MLens", func() *dataset.Dataset {
		cfg := dataset.MLensConfig(o.Scale)
		cfg.Seed = o.Seed + 1
		return dataset.Generate(cfg)
	})
	out["YTube"] = yt
	out["MLens"] = ml
	out["SynYTube"] = get("SynYTube", func() *dataset.Dataset {
		return dataset.Replicate(yt, "SynYTube", o.Seed+2)
	})
	out["SynMLens"] = get("SynMLens", func() *dataset.Dataset {
		return dataset.Replicate(ml, "SynMLens", o.Seed+3)
	})
	return out
}

// tunedLambda holds the λs optima found by the Fig. 7 protocol on our
// generated collections (the paper's §VI-C4 uses the same "optimal
// settings from previous experiments" rule; its own optima were 0.4 for
// YTube and 0.3 for MLens — our MLens-shaped workload is more
// recency-driven, so its optimum sits higher; see EXPERIMENTS.md).
var tunedLambda = map[string]float64{
	"YTube":    0.4,
	"SynYTube": 0.4,
	"MLens":    0.8,
	"SynMLens": 0.8,
}

// engineConfig returns the shared engine configuration for a dataset,
// with the λs optimum tuned per collection.
func engineConfig(ds *dataset.Dataset, o Options) core.Config {
	cfg := core.Config{
		Categories:   ds.Categories,
		TrainMaxIter: 6,
		Restarts:     1,
		Seed:         o.Seed,
	}
	if lam, ok := tunedLambda[ds.Name]; ok {
		cfg.LambdaS = lam
	}
	return cfg
}

func setupFor(o Options) evalx.Setup {
	s := evalx.Setup{}
	if o.Quick {
		s.MaxItemsPerPartition = 40
	}
	return s
}

// ---- Table II: signature size vs user block count ----

// Table2Row is one row of Table II: forcing more user blocks shrinks the
// per-tree universes.
type Table2Row struct {
	Blocks      int
	MaxEntity   int // largest per-tree entity universe
	MaxProducer int // largest per-block producer universe
}

// Table2 reproduces Table II. It uses a YTube-shaped dataset with a
// paper-scale entity vocabulary (the paper has ≈2,900 entities per
// category): the blocking effect on per-tree universes only shows when the
// vocabulary is large relative to what any one user block touches.
func Table2(o Options) []Table2Row {
	o.fill()
	cfg := dataset.YTubeConfig(o.Scale)
	cfg.Seed = o.Seed
	cfg.EntitiesPerCategory = 600
	cfg.TopicsPerCategory = 30
	// A paper-like producer-to-consumer ratio (3,146 producers for 8.4M
	// consumers still means hundreds of producers per block-relevant
	// category slice); with the generator default every block would touch
	// every producer and the producer column of Table II would be flat.
	cfg.NumProducers = cfg.NumProducers * 4
	cfg.CreateProb = 0.08
	ds := dataset.Generate(cfg)
	store, bg := profilesFromDataset(ds)
	probs := cppse.MLEProbs{Store: store}
	blockCounts := []int{1, 10, 20, 30, 40, 50}
	if o.Quick {
		blockCounts = []int{1, 10, 30}
	}
	var rows []Table2Row
	for _, k := range blockCounts {
		ix, err := cppse.Build(store, bg, probs, cppse.Config{
			Categories:  ds.Categories,
			FixedBlocks: k,
		})
		if err != nil {
			continue
		}
		s := ix.Stats()
		rows = append(rows, Table2Row{Blocks: k, MaxEntity: s.MaxEntityUni, MaxProducer: s.MaxProducerUni})
	}
	return rows
}

// profilesFromDataset materialises long-term profiles (and background) from
// a full dataset — the index-construction input.
func profilesFromDataset(ds *dataset.Dataset) (*profile.Store, *profile.Background) {
	store := profile.NewStore(5)
	for _, ir := range ds.Interactions {
		if v, ok := ds.Item(ir.ItemID); ok {
			store.Get(ir.UserID).ObserveLongTerm(profile.EventFromItem(v, ir.Timestamp))
		}
	}
	return store, profile.NewBackground(ds.Items, 10)
}

// ---- Table III: dataset overview ----

// Table3 reproduces Table III: the statistics of the four collections.
func Table3(o Options) []dataset.Stats {
	o.fill()
	dss := Datasets(o)
	var rows []dataset.Stats
	for _, name := range DatasetNames {
		rows = append(rows, dss[name].ComputeStats())
	}
	return rows
}

// ---- Fig. 5: BiHMM vs HMM accuracy ----

// Fig5Row is one bar pair of Fig. 5: users grouped by their optimal hidden
// state count, with the mean next-category accuracy of HMM and BiHMM.
type Fig5Row struct {
	Dataset string
	States  int
	Users   int
	HMM     float64
	BiHMM   float64
}

// Fig5 reproduces the BiHMM-vs-HMM comparison: per consumer, the optimal
// HMM state count is tuned on the first 80% of its history (peak accuracy
// on the last 20%); a BiHMM with the same state count is trained on the
// producer-state-annotated history; users are grouped by optimal state
// count and mean accuracies reported.
func Fig5(o Options) []Fig5Row {
	o.fill()
	dss := Datasets(o)
	maxStates := 8
	maxUsers := 30
	minHistory := 25
	trainOpts := hmm.TrainOptions{MaxIter: 12, Restarts: 2}
	biOpts := bihmm.TrainOptions{MaxIter: 12, Restarts: 3}
	if o.Quick {
		maxStates = 4
		maxUsers = 10
		trainOpts = hmm.TrainOptions{MaxIter: 8, Restarts: 1}
		biOpts = bihmm.TrainOptions{MaxIter: 8, Restarts: 2}
	}

	var rows []Fig5Row
	for _, name := range DatasetNames {
		ds := dss[name]
		obsByUser, nCats := consumerObservations(ds, o)
		type acc struct {
			users int
			hmm   float64
			bihmm float64
		}
		groups := map[int]*acc{}
		users := sortedUserIDs(obsByUser)
		done := 0
		for _, uid := range users {
			obs := obsByUser[uid]
			if len(obs) < minHistory {
				continue
			}
			if done >= maxUsers {
				break
			}
			done++
			catSeq := make([]int, len(obs))
			for i, ob := range obs {
				catSeq[i] = ob.Cat
			}
			nOpt, _, hmmAcc := hmm.SelectStates(catSeq, maxStates, nCats, o.Seed+int64(done), trainOpts)
			split := len(obs) * 8 / 10
			// nz = nCats: the aligned producer-state alphabet.
			bi, _, err := bihmm.Fit(nOpt, nCats, nCats, [][]bihmm.Obs{obs[:split]}, o.Seed+int64(done), biOpts)
			if err != nil {
				continue
			}
			biAcc := bihmm.EvaluateNextPrediction(bi, obs, split)
			g := groups[nOpt]
			if g == nil {
				g = &acc{}
				groups[nOpt] = g
			}
			g.users++
			g.hmm += hmmAcc
			g.bihmm += biAcc
		}
		var states []int
		for s := range groups {
			states = append(states, s)
		}
		sort.Ints(states)
		for _, s := range states {
			g := groups[s]
			rows = append(rows, Fig5Row{
				Dataset: name, States: s, Users: g.users,
				HMM:   g.hmm / float64(g.users),
				BiHMM: g.bihmm / float64(g.users),
			})
		}
	}
	return rows
}

// consumerObservations derives per-consumer (category, producer-state)
// sequences: the producer layer is trained on per-producer item streams
// and every item gets a decoded Z.
func consumerObservations(ds *dataset.Dataset, o Options) (map[string][]bihmm.Obs, int) {
	catIdx := map[string]int{}
	for i, c := range ds.Categories {
		catIdx[c] = i
	}
	prodHist := map[string][]int{}
	prodItems := map[string][]string{}
	for _, v := range ds.Items {
		ci, ok := catIdx[v.Category]
		if !ok {
			continue
		}
		prodHist[v.Producer] = append(prodHist[v.Producer], ci)
		prodItems[v.Producer] = append(prodItems[v.Producer], v.ID)
	}
	pl := bihmm.FitProducerLayer(prodHist, len(ds.Categories), bihmm.ProducerLayerOptions{
		NZ: 3, MinHistory: 5, Seed: o.Seed,
		Train: hmm.TrainOptions{MaxIter: 8, Restarts: 1},
	})
	itemZ := map[string]int{}
	for up, ids := range prodItems {
		for pos, id := range ids {
			itemZ[id] = pl.AlignedStateAt(up, pos)
		}
	}
	obsByUser := map[string][]bihmm.Obs{}
	for _, ir := range ds.Interactions {
		v, ok := ds.Item(ir.ItemID)
		if !ok {
			continue
		}
		ci, ok := catIdx[v.Category]
		if !ok {
			continue
		}
		z, ok := itemZ[v.ID]
		if !ok {
			z = bihmm.ZUnknown
		}
		obsByUser[ir.UserID] = append(obsByUser[ir.UserID], bihmm.Obs{Cat: ci, Z: z})
	}
	return obsByUser, len(ds.Categories)
}

func sortedUserIDs(m map[string][]bihmm.Obs) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- Fig. 6 / Fig. 7: parameter sensitivity ----

// SweepRow is one x-axis point of a parameter sweep with P@k values.
type SweepRow struct {
	X    float64
	PAtK map[int]float64
}

// Fig6 reproduces the short-term window size sweep on one dataset: for
// each |W| ∈ 1..10 the precision at the best λs over the grid is reported
// (the paper's protocol).
func Fig6(o Options, dsName string) []SweepRow {
	o.fill()
	ds := Datasets(o)[dsName]
	windows := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	lambdas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if o.Quick {
		windows = []int{1, 3, 5, 8, 10}
		lambdas = []float64{0.2, 0.4, 0.7}
	}
	var rows []SweepRow
	for _, w := range windows {
		best := map[int]float64{}
		for _, lam := range lambdas {
			cfg := engineConfig(ds, o)
			cfg.WindowSize = w
			cfg.LambdaS = lam
			res, err := evalx.Run(core.New(cfg), ds, setupFor(o), o.Ks)
			if err != nil {
				continue
			}
			for _, k := range o.Ks {
				if res.PAtK[k] > best[k] {
					best[k] = res.PAtK[k]
				}
			}
		}
		rows = append(rows, SweepRow{X: float64(w), PAtK: best})
	}
	return rows
}

// Fig7 reproduces the λs sweep with |W| fixed to 5.
func Fig7(o Options, dsName string) []SweepRow {
	o.fill()
	ds := Datasets(o)[dsName]
	lambdas := []float64{0.001, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999}
	if o.Quick {
		lambdas = []float64{0.001, 0.2, 0.4, 0.6, 0.8, 0.999}
	}
	var rows []SweepRow
	for _, lam := range lambdas {
		cfg := engineConfig(ds, o)
		cfg.WindowSize = 5
		cfg.LambdaS = lam
		res, err := evalx.Run(core.New(cfg), ds, setupFor(o), o.Ks)
		if err != nil {
			continue
		}
		rows = append(rows, SweepRow{X: lam, PAtK: res.PAtK})
	}
	return rows
}

// ---- Fig. 8 / Fig. 9: effectiveness comparisons ----

// SystemRow is one system's P@k results on one dataset.
type SystemRow struct {
	Dataset string
	System  string
	PAtK    map[int]float64
}

// systems builds the comparison set for Fig. 8.
func fig8Systems(ds *dataset.Dataset, o Options) []baseline.Recommender {
	ne := engineConfig(ds, o)
	ne.DisableExpansion = true
	full := engineConfig(ds, o)
	return []baseline.Recommender{
		baseline.NewCTT(baseline.CTTConfig{}),
		baseline.NewUCD(baseline.UCDConfig{}, ds.Categories),
		core.New(ne),
		core.New(full),
	}
}

// Fig8 reproduces the effectiveness comparison: CTT, UCD, ssRec-ne and
// ssRec on all four datasets.
func Fig8(o Options) []SystemRow {
	o.fill()
	dss := Datasets(o)
	var rows []SystemRow
	for _, name := range DatasetNames {
		ds := dss[name]
		for _, rec := range fig8Systems(ds, o) {
			res, err := evalx.Run(rec, ds, setupFor(o), o.Ks)
			if err != nil {
				continue
			}
			rows = append(rows, SystemRow{Dataset: name, System: res.System, PAtK: res.PAtK})
		}
	}
	return rows
}

// Fig9 reproduces the profile-update ablation: ssRec-nu (updates ignored)
// vs ssRec. Both arms run at the paper's base λs = 0.4 so the comparison
// isolates the update effect: at the MLens-tuned λs = 0.8 the frozen arm's
// stale short-term windows dominate the score and confound the ablation.
func Fig9(o Options) []SystemRow {
	o.fill()
	dss := Datasets(o)
	var rows []SystemRow
	for _, name := range DatasetNames {
		ds := dss[name]
		nu := engineConfig(ds, o)
		nu.LambdaS = 0.4
		nu.DisableUpdates = true
		full := engineConfig(ds, o)
		full.LambdaS = 0.4
		for _, rec := range []baseline.Recommender{core.New(nu), core.New(full)} {
			res, err := evalx.Run(rec, ds, setupFor(o), o.Ks)
			if err != nil {
				continue
			}
			rows = append(rows, SystemRow{Dataset: name, System: res.System, PAtK: res.PAtK})
		}
	}
	return rows
}

// ---- Fig. 10: recommendation efficiency ----

// LatencyRow is one (system, #partitions) point: the cumulative average
// per-item recommendation time after that many test partitions.
type LatencyRow struct {
	Dataset    string
	System     string
	Partitions int
	PerItem    time.Duration
}

// Fig10 reproduces the response-time comparison of CTT, UCD and the
// CPPse-index (ssRec) as the replayed stream grows, k = 30.
func Fig10(o Options) []LatencyRow {
	o.fill()
	dss := Datasets(o)
	names := DatasetNames
	if o.Quick {
		names = []string{"YTube", "MLens"}
	}
	var rows []LatencyRow
	for _, name := range names {
		ds := dss[name]
		systems := []baseline.Recommender{
			baseline.NewCTT(baseline.CTTConfig{}),
			baseline.NewUCD(baseline.UCDConfig{}, ds.Categories),
			core.New(engineConfig(ds, o)),
		}
		for _, rec := range systems {
			res, err := evalx.Run(rec, ds, setupFor(o), []int{30})
			if err != nil {
				continue
			}
			sys := res.System
			if sys == "ssRec" {
				sys = "CPPse-index"
			}
			for _, pm := range res.PerPartition {
				rows = append(rows, LatencyRow{
					Dataset: name, System: sys,
					Partitions: pm.Partition, PerItem: pm.RecommendLatency,
				})
			}
		}
	}
	return rows
}

// ---- Fig. 11: update efficiency ----

// UpdateRow is one (dataset, #partitions) point: the cumulative index
// maintenance time after replaying that many partitions of updates.
type UpdateRow struct {
	Dataset    string
	Partitions int
	Total      time.Duration
}

// Fig11 reproduces the social-update cost curve of the CPPse-index.
func Fig11(o Options) []UpdateRow {
	o.fill()
	dss := Datasets(o)
	var rows []UpdateRow
	for _, name := range DatasetNames {
		ds := dss[name]
		res, err := evalx.Run(core.New(engineConfig(ds, o)), ds, setupFor(o), []int{30})
		if err != nil {
			continue
		}
		for _, pm := range res.PerPartition {
			rows = append(rows, UpdateRow{Dataset: name, Partitions: pm.Partition, Total: pm.UpdateTotal})
		}
	}
	return rows
}

// ---- shared pretty-printing ----

// FormatPAtK renders a P@k map in cutoff order.
func FormatPAtK(p map[int]float64, ks []int) string {
	s := ""
	for i, k := range ks {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("P@%d=%.3f", k, p[k])
	}
	return s
}
