package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
)

// runQuery is query-10k: the paper's per-item path. One client sends the
// post-training items in timestamp order to an in-process engine; every
// item is new, so each call registers it, encodes the query and searches
// the index. No write path, RPC or HTTP runs, and no item repeats, so a
// result cache could not show a gain here.
func runQuery(ctx context.Context, e *env) (*outcome, error) {
	c := generate(e.size.bigUsers, e.size.bigProducers, e.size.steps, e.seed)
	if len(c.fresh) < e.size.heldOut+e.size.queryWarm+1 {
		return nil, fmt.Errorf("only %d fresh items", len(c.fresh))
	}
	stream, heldOut := c.fresh[:len(c.fresh)-e.size.heldOut], c.fresh[len(c.fresh)-e.size.heldOut:]
	snap, err := c.writeSnapshot(e, "query.snap")
	if err != nil {
		return nil, err
	}
	// Only the items stay alive through the rounds: the generated dataset
	// would otherwise sit in the peak RSS of the system under test.
	c = corpus{}

	o := newOutcome()
	seen := map[string]struct{}{}
	k := core.WithK(topK)
	check := func(v model.Item, res core.Result, err error) error {
		if err == nil {
			err = checkAnswer(v.ID, res.Recommendations, seen)
		}
		o.ops(1, err)
		return err
	}
	var (
		eng  *core.Engine
		rs   = newRounds()
		ms   [2]runtime.MemStats
		walk searchWalk
	)
	for r := 0; r < e.size.queryRounds; r++ {
		eng = nil // at most one engine alive: drop the previous round's first
		settle()
		// The peak RSS window opens here, as a daemon's opens at its spawn:
		// it covers the load and the round, not generation and training.
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		start := time.Now()
		if eng, err = loadSnapshot(snap); err != nil {
			return nil, err
		}
		rs.setups = append(rs.setups, time.Since(start))
		// The oracle items are registered up front, so the answers compared
		// after the last round see one engine state on both sides.
		for _, v := range heldOut {
			eng.RegisterItem(v)
		}
		rs.host.sample()
		settle()
		// The counts cover the warm-up, a fixed prefix, so they repeat
		// exactly for one seed.
		walk = searchWalk{}
		runtime.ReadMemStats(&ms[0])
		for _, v := range stream[:e.size.queryWarm] {
			res, err := eng.RecommendCtx(ctx, v, k)
			if check(v, res, err) == nil {
				walk.add(res.Stats.NodesVisited, res.Stats.EntriesScored, res.Stats.EntriesSkipped)
			}
		}
		runtime.ReadMemStats(&ms[1])

		timed := stream[e.size.queryWarm:]
		seg := startSegment(e.segment(e.size.queryRounds), selfCPU())
		for _, v := range timed {
			if seg.over(e.size.maxOps) {
				break
			}
			t0 := time.Now()
			res, err := eng.RecommendCtx(ctx, v, k)
			seg.lat(time.Since(t0))
			seg.done(1)
			check(v, res, err) //nolint:errcheck // counted by check
		}
		rs.end(seg, selfCPU())
		rss, err := peakRSS("self")
		if err != nil {
			return nil, err
		}
		rs.rss = append(rs.rss, rss)
		e.logf("query-10k round %d: %s", r+1, rs.last())
		if seg.reqs == len(timed) && e.size.maxOps == 0 {
			o.note("round %d: stream exhausted after %.2fs", r+1, seg.wall.Seconds())
		}
	}

	// Oracle: the pruned search must equal the exhaustive scan bit for bit.
	for _, v := range heldOut {
		res, err := eng.RecommendCtx(ctx, v, k)
		if check(v, res, err) == nil && !sameAnswer(res.Recommendations, eng.RecommendScan(v, topK)) {
			o.gate(fmt.Errorf("held-out item %s: pruned search differs from the exhaustive scan", v.ID))
		}
	}

	rs.report(o)
	n := float64(e.size.queryWarm)
	o.counts["sigtree.nodes_per_item"] = float64(walk.nodes) / n
	o.counts["sigtree.scored_per_item"] = float64(walk.scored) / n
	o.counts["sigtree.prune_ratio"] = walk.pruneRatio()
	o.counts["core.allocs_per_item"] = float64(ms[1].Mallocs-ms[0].Mallocs) / n
	return o, nil
}

// searchWalk sums the index search statistics of many queries.
type searchWalk struct{ nodes, scored, skipped int }

func (w *searchWalk) add(nodes, scored, skipped int) {
	w.nodes, w.scored, w.skipped = w.nodes+nodes, w.scored+scored, w.skipped+skipped
}

// pruneRatio is the share of candidate leaf entries the upper bound
// skipped without scoring.
func (w searchWalk) pruneRatio() float64 {
	if w.scored+w.skipped == 0 {
		return 0
	}
	return float64(w.skipped) / float64(w.scored+w.skipped)
}
