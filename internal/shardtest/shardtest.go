// Package shardtest is the shared test harness of the sharded-deployment
// conformance suites: one seeded stream-replay fixture, a deterministic
// replay driver and a transcript differ, used by both the in-process suite
// (internal/shard) and the network-transport suite (internal/shardrpc) so
// the two prove equivalence against the SAME reference workload. Main is
// the goroutine-leak check those packages, the server and the
// fault-injection suites run as their TestMain.
//
// The fixture is deliberately heavyweight — a 0.5-scale YTube-shaped
// dataset whose post-training stream carries at least 10k interactions
// (the conformance acceptance floor) — and is built once per process.
package shardtest

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/dataset"
	"ssrec/internal/model"
	"ssrec/internal/sigtree"
)

// Replay schedule constants, shared by every conformance suite.
const (
	// ReplayBatch is the observations per ObserveBatch micro-batch.
	ReplayBatch = 128
	// ReplayQueryLen is the items recommended between micro-batches.
	ReplayQueryLen = 6
	// ReplayK is the per-query result size.
	ReplayK = 10
)

// Deployment is the surface the replay drives — satisfied by *core.Engine
// (the reference), *shard.Router (in-process and remote deployments) and
// any other engine-shaped system under test.
type Deployment interface {
	ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error)
	RecommendBatch(ctx context.Context, items []model.Item, opts ...core.Option) ([]core.Result, error)
}

// Fixture is the shared deterministic workload: one trained-engine
// snapshot every deployment boots from, the post-training observation
// stream and the query schedule interleaved between micro-batches.
type Fixture struct {
	Snapshot []byte
	Obs      []core.Observation
	Queries  []model.Item
}

var fixtureCache *Fixture

// Load builds (once per process) the seeded dataset, trains the reference
// engine on the leading third and snapshots it.
func Load(tb testing.TB) *Fixture {
	tb.Helper()
	if fixtureCache != nil {
		return fixtureCache
	}
	cfg := dataset.YTubeConfig(0.5)
	cfg.Seed = 17
	ds := dataset.Generate(cfg)
	eng := core.New(core.Config{Categories: ds.Categories, TrainMaxIter: 3, Restarts: 1, Seed: 17})
	nTrain := len(ds.Interactions) / 3
	if err := eng.Train(ds.Items, ds.Interactions[:nTrain], ds.Item); err != nil {
		tb.Fatalf("train: %v", err)
	}
	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err != nil {
		tb.Fatalf("snapshot: %v", err)
	}
	fx := &Fixture{Snapshot: buf.Bytes()}
	lastTS := ds.Interactions[nTrain-1].Timestamp
	for _, ir := range ds.Interactions[nTrain:] {
		if v, ok := ds.Item(ir.ItemID); ok {
			fx.Obs = append(fx.Obs, core.Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
		}
	}
	for _, v := range ds.Items {
		if v.Timestamp > lastTS {
			fx.Queries = append(fx.Queries, v)
		}
	}
	if len(fx.Obs) < 10000 {
		tb.Fatalf("replay stream has %d interactions, conformance floor is 10k", len(fx.Obs))
	}
	if len(fx.Queries) < ReplayQueryLen {
		tb.Fatalf("only %d query items", len(fx.Queries))
	}
	fixtureCache = fx
	return fx
}

// Transcript is everything a deployment exposes during one replay.
type Transcript struct {
	Reports []core.BatchReport
	Results [][]core.Result
}

// Replay drives the deterministic schedule — micro-batches of
// observations, each followed by a rotating recommendation batch over
// future items — and records the transcript. maxBatches <= 0 replays the
// full stream.
func (fx *Fixture) Replay(tb testing.TB, d Deployment, maxBatches int) *Transcript {
	tb.Helper()
	return fx.ReplayBatchSize(tb, d, ReplayBatch, maxBatches)
}

// ReplayCallers is Replay with every query window asked by callers
// concurrent RecommendBatch calls instead of one. Queries only read the
// deployment, so every caller must get the same answer; the transcript
// records it, and a caller that disagrees fails the replay. callers <= 1
// is Replay.
func (fx *Fixture) ReplayCallers(tb testing.TB, d Deployment, maxBatches, callers int) *Transcript {
	tb.Helper()
	return fx.replay(tb, d, ReplayBatch, maxBatches, nil, callers)
}

// ReplayBatchSize is Replay with the micro-batch size as a parameter — the
// write-path conformance suites sweep it (batch=1 flushes the index after
// every observation; larger batches accumulate dirty-category masks across
// many observations before one flush, exercising mask merging). Transcripts
// are only comparable between replays that used the SAME batch size: the
// flush schedule is observable through BatchReport.Flushed.
func (fx *Fixture) ReplayBatchSize(tb testing.TB, d Deployment, batchSize, maxBatches int) *Transcript {
	tb.Helper()
	return fx.ReplayWithHooks(tb, d, batchSize, maxBatches, nil)
}

// ReplayWithHooks is ReplayBatchSize with mid-stream intervention points:
// hooks[i] runs just BEFORE batch i's ObserveBatch, at the exact batch
// boundary the schedule defines. The resharding conformance gates use it
// to kick off a live split/merge at a seeded batch index and to join it a
// fixed number of batches later, so the migration provably overlaps the
// stream; the fault-injection suites can likewise kill or revive replicas
// at deterministic stream positions. Hooks run on the replay goroutine —
// anything concurrent must be launched by the hook itself.
func (fx *Fixture) ReplayWithHooks(tb testing.TB, d Deployment, batchSize, maxBatches int, hooks map[int]func(batchIdx int)) *Transcript {
	tb.Helper()
	return fx.replay(tb, d, batchSize, maxBatches, hooks, 1)
}

func (fx *Fixture) replay(tb testing.TB, d Deployment, batchSize, maxBatches int, hooks map[int]func(batchIdx int), callers int) *Transcript {
	tb.Helper()
	if batchSize <= 0 {
		tb.Fatalf("batchSize %d", batchSize)
	}
	ctx := context.Background()
	tr := &Transcript{}
	k := core.WithK(ReplayK)
	batchIdx := 0
	for lo := 0; lo < len(fx.Obs); lo += batchSize {
		hi := min(lo+batchSize, len(fx.Obs))
		if hook, ok := hooks[batchIdx]; ok {
			hook(batchIdx)
		}
		rep, err := d.ObserveBatch(ctx, fx.Obs[lo:hi])
		if err != nil {
			tb.Fatalf("batch %d: ObserveBatch: %v", batchIdx, err)
		}
		rep.Errors = nil // compared separately via Rejected
		tr.Reports = append(tr.Reports, rep)
		q := QueryWindow(fx.Queries, batchIdx)
		answers := make([][]core.Result, max(callers, 1))
		errs := make([]error, len(answers))
		var wg sync.WaitGroup
		for c := range answers {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				answers[c], errs[c] = d.RecommendBatch(ctx, q, k)
			}(c)
		}
		wg.Wait()
		for c, results := range answers {
			if errs[c] != nil {
				tb.Fatalf("batch %d: caller %d: RecommendBatch: %v", batchIdx, c, errs[c])
			}
			for i := range results {
				// Pruning counters legitimately differ across shardings
				// (each deployment prunes with different bound timing);
				// observable equivalence is about results, not traversal
				// effort.
				results[i].Stats = sigtree.SearchStats{}
			}
			if c > 0 && !reflect.DeepEqual(results, answers[0]) {
				tb.Fatalf("batch %d: concurrent callers 0 and %d got different answers\n  0: %v\n%3d: %v",
					batchIdx, c, answers[0], c, results)
			}
		}
		tr.Results = append(tr.Results, answers[0])
		batchIdx++
		if maxBatches > 0 && batchIdx >= maxBatches {
			break
		}
	}
	return tr
}

// ReplaySeq drives the SAME deterministic schedule as Replay, but issues
// every query as its own single-item RecommendBatch call — the engine-call
// pattern a Session produces (each Ask is one batch call after the
// pending observations are admitted). Because item registration advances
// the entity expander, per-item and whole-window query batches are
// different (both deterministic) schedules; a session transcript must be
// compared against THIS reference.
func (fx *Fixture) ReplaySeq(tb testing.TB, d Deployment, maxBatches int) *Transcript {
	tb.Helper()
	ctx := context.Background()
	tr := &Transcript{}
	k := core.WithK(ReplayK)
	batchIdx := 0
	for lo := 0; lo < len(fx.Obs); lo += ReplayBatch {
		hi := min(lo+ReplayBatch, len(fx.Obs))
		rep, err := d.ObserveBatch(ctx, fx.Obs[lo:hi])
		if err != nil {
			tb.Fatalf("batch %d: ObserveBatch: %v", batchIdx, err)
		}
		rep.Errors = nil
		tr.Reports = append(tr.Reports, rep)
		window := make([]core.Result, 0, ReplayQueryLen)
		for _, q := range QueryWindow(fx.Queries, batchIdx) {
			results, err := d.RecommendBatch(ctx, []model.Item{q}, k)
			if err != nil {
				tb.Fatalf("batch %d: RecommendBatch(%s): %v", batchIdx, q.ID, err)
			}
			results[0].Stats = sigtree.SearchStats{}
			window = append(window, results[0])
		}
		tr.Results = append(tr.Results, window)
		batchIdx++
		if maxBatches > 0 && batchIdx >= maxBatches {
			break
		}
	}
	return tr
}

// SessionDriver is the session surface the stream replay drives —
// satisfied by core.Session (over any SessionBackend: engine, in-process
// router, remote router) and by server.ClientSession (the /v2/session
// wire client), so one replay proves the whole stack.
type SessionDriver interface {
	Push(o core.Observation) error
	Ask(v model.Item, opts ...core.Option) error
	Results() <-chan core.SessionResult
	Close() error
}

// ReplaySession replays the schedule as interleaved session traffic: each
// micro-batch is Pushed observation by observation, then the query window
// is Asked item by item. Answers are collected from the ordered Results
// channel (concurrently — the driver may flow-control the pushes) and
// grouped back into the schedule's windows. The session must be opened
// with a micro-batch of ReplayBatch and no linger so its flush points
// coincide with the reference's; Close is called at the end.
func (fx *Fixture) ReplaySession(tb testing.TB, ses SessionDriver, maxBatches int) *Transcript {
	tb.Helper()
	k := core.WithK(ReplayK)
	var collected []core.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range ses.Results() {
			r.Stats = sigtree.SearchStats{}
			collected = append(collected, r.Result)
		}
	}()
	batchIdx := 0
	for lo := 0; lo < len(fx.Obs); lo += ReplayBatch {
		hi := min(lo+ReplayBatch, len(fx.Obs))
		for _, o := range fx.Obs[lo:hi] {
			if err := ses.Push(o); err != nil {
				tb.Fatalf("batch %d: Push: %v", batchIdx, err)
			}
		}
		for _, q := range QueryWindow(fx.Queries, batchIdx) {
			if err := ses.Ask(q, k); err != nil {
				tb.Fatalf("batch %d: Ask(%s): %v", batchIdx, q.ID, err)
			}
		}
		batchIdx++
		if maxBatches > 0 && batchIdx >= maxBatches {
			break
		}
	}
	if err := ses.Close(); err != nil {
		tb.Fatalf("session close: %v", err)
	}
	<-done
	tr := &Transcript{}
	if len(collected) != batchIdx*ReplayQueryLen {
		tb.Fatalf("session answered %d queries, schedule asked %d", len(collected), batchIdx*ReplayQueryLen)
	}
	for i := 0; i < batchIdx; i++ {
		tr.Results = append(tr.Results, collected[i*ReplayQueryLen:(i+1)*ReplayQueryLen])
	}
	return tr
}

// QueryWindow rotates deterministically through the future-item list.
func QueryWindow(items []model.Item, batchIdx int) []model.Item {
	out := make([]model.Item, 0, ReplayQueryLen)
	for i := 0; i < ReplayQueryLen; i++ {
		out = append(out, items[(batchIdx*ReplayQueryLen+i)%len(items)])
	}
	return out
}

// Diff asserts two replays are observably identical: same ingest reports,
// same per-item errors, same ranked results (IDs, scores, order).
func Diff(t *testing.T, want, got *Transcript, label string) {
	t.Helper()
	if len(want.Reports) != len(got.Reports) {
		t.Fatalf("%s: %d reports vs %d", label, len(got.Reports), len(want.Reports))
	}
	for i := range want.Reports {
		w, g := want.Reports[i], got.Reports[i]
		if w.Applied != g.Applied || w.Rejected != g.Rejected || w.Flushed != g.Flushed {
			t.Errorf("%s: batch %d report = %+v, want %+v", label, i, g, w)
		}
	}
	DiffResults(t, want, got, label)
}

// DiffResults asserts the query halves of two replays are bit-identical —
// the comparison a session transcript supports (ingest reports travel
// per-flush and are summarised, not itemised, on a session).
func DiffResults(t *testing.T, want, got *Transcript, label string) {
	t.Helper()
	if len(want.Results) != len(got.Results) {
		t.Fatalf("%s: %d result windows vs %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		for j := range want.Results[i] {
			w, g := want.Results[i][j], got.Results[i][j]
			if w.ItemID != g.ItemID {
				t.Fatalf("%s: batch %d item %d: id %q vs %q", label, i, j, g.ItemID, w.ItemID)
			}
			if (w.Err == nil) != (g.Err == nil) {
				t.Fatalf("%s: batch %d item %s: err %v vs %v", label, i, w.ItemID, g.Err, w.Err)
			}
			if !reflect.DeepEqual(w.Recommendations, g.Recommendations) {
				t.Fatalf("%s: batch %d item %s: ranked results diverged\n got %v\nwant %v",
					label, i, w.ItemID, g.Recommendations, w.Recommendations)
			}
		}
	}
}
