package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"

	"ssrec"
	"ssrec/internal/core"
	"ssrec/internal/dataset"
	"ssrec/internal/model"
)

const (
	// parallelism is the engines' search worker count, nproc on the
	// 2-vCPU host the benchmark was sized on.
	parallelism = 2
	// topK is the answer size of every query.
	topK = 30
	// batchSize is the observation micro-batch: one /v2/observe request,
	// one session flush, one ObserveBatch call.
	batchSize = 64
	// asksPerEvent is the number of fresh items asked after each fleet
	// event's batch.
	asksPerEvent = 4
)

// sizing fixes the datasets and operation counts of one benchmark size.
type sizing struct {
	// ytube-10k (query-10k and ingest-10k) keeps the 1:16.7 producer to
	// consumer ratio of the 20k-user dataset it stands in for.
	bigUsers, bigProducers     int
	smallUsers, smallProducers int // ytube-5k: fleet-5k
	steps                      int
	// Rounds per run: set-ups of the system under test, each followed by
	// a warm-up and a timed segment (see rounds.go).
	queryRounds, ingestRounds, fleetRounds int
	queryWarm, ingestWarm, fleetWarm       int
	// maxOps caps a timed segment at this many requests (items, batches,
	// events); 0 runs until the segment's time is up.
	maxOps    int
	heldOut   int // query-10k items held out for the oracle check
	refEvents int // fleet-5k events checked against the in-process reference
	// Stream prefixes of the traced ladders, and the queries also searched
	// serially.
	traceItems, traceBatches, traceEvents, traceSerial int
}

var sizes = map[string]sizing{
	"full": {
		bigUsers: 10000, bigProducers: 600, smallUsers: 5000, smallProducers: 400, steps: 150,
		queryRounds: 5, ingestRounds: 3, fleetRounds: 5,
		queryWarm: 1000, ingestWarm: 30, fleetWarm: 30,
		heldOut: 200, refEvents: 350,
		traceItems: 3000, traceBatches: 200, traceEvents: 250, traceSerial: 1000,
	},
	"smoke": {
		bigUsers: 1000, bigProducers: 60, smallUsers: 1000, smallProducers: 80, steps: 60,
		queryRounds: 2, ingestRounds: 2, fleetRounds: 2,
		queryWarm: 10, ingestWarm: 5, fleetWarm: 5, maxOps: 50,
		heldOut: 20, refEvents: 350,
		traceItems: 50, traceBatches: 20, traceEvents: 20, traceSerial: 20,
	},
}

// corpus is a generated dataset split the way every workload uses it: the
// engine trains on the first third of the interactions, and the rest plus
// the items newer than the training window form the streams.
type corpus struct {
	ds    *dataset.Dataset
	train []model.Interaction
	rest  []model.Interaction
	fresh []model.Item // items newer than the last training interaction, in timestamp order
}

// generate builds the YTube-shaped dataset of a workload. The seed drives
// both the generator and training, so one seed gives one set of inputs.
func generate(users, producers, steps int, seed int64) corpus {
	cfg := dataset.YTubeConfig(1)
	cfg.NumConsumers, cfg.NumProducers, cfg.Steps = users, producers, steps
	cfg.BrowseProb, cfg.Seed = 0.2, seed
	ds := dataset.Generate(cfg)
	n := len(ds.Interactions) / 3
	c := corpus{ds: ds, train: ds.Interactions[:n], rest: ds.Interactions[n:]}
	last := c.train[len(c.train)-1].Timestamp
	for _, v := range ds.Items {
		if v.Timestamp > last {
			c.fresh = append(c.fresh, v)
		}
	}
	return c
}

// writeSnapshot trains an engine through the root API, saves it where
// core.LoadFrom and the daemons' -model flag read it and lets it go, so no
// engine stays alive in this process.
func (c corpus) writeSnapshot(e *env, name string) (string, error) {
	rec := ssrec.Open(ssrec.Config{Categories: c.ds.Categories, Seed: e.seed, Parallelism: parallelism})
	if err := rec.Train(c.ds.Items, c.train, c.ds.Item); err != nil {
		return "", fmt.Errorf("train: %w", err)
	}
	path := filepath.Join(e.dir, name)
	if err := rec.Engine().SaveFile(path); err != nil {
		return "", fmt.Errorf("save snapshot: %w", err)
	}
	settle()
	return path, nil
}

// loadSnapshot boots an in-process engine from a snapshot file.
func loadSnapshot(path string) (*core.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open snapshot: %w", err)
	}
	defer f.Close()
	eng, err := core.LoadFrom(f)
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	return eng, nil
}

// observation resolves one interaction of the stream.
func (c corpus) observation(ir model.Interaction) (core.Observation, error) {
	v, ok := c.ds.Item(ir.ItemID)
	if !ok {
		return core.Observation{}, fmt.Errorf("interaction references unknown item %q", ir.ItemID)
	}
	return core.Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp}, nil
}

// batches cuts the post-training interactions into full micro-batches.
func (c corpus) batches() ([][]core.Observation, error) {
	out := make([][]core.Observation, 0, len(c.rest)/batchSize)
	for lo := 0; lo+batchSize <= len(c.rest); lo += batchSize {
		b := make([]core.Observation, batchSize)
		for i, ir := range c.rest[lo : lo+batchSize] {
			o, err := c.observation(ir)
			if err != nil {
				return nil, err
			}
			b[i] = o
		}
		out = append(out, b)
	}
	return out, nil
}

// event is one fleet-5k step: a micro-batch of observations, then
// asksPerEvent items no earlier observation or ask has mentioned.
type event struct {
	obs  []core.Observation
	asks []model.Item
}

// events builds the fleet stream until either the interactions or the
// unseen fresh items run out.
func (c corpus) events() ([]event, error) {
	bs, err := c.batches()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	next := 0
	var out []event
	for _, b := range bs {
		for _, o := range b {
			seen[o.Item.ID] = true
		}
		ev := event{obs: b}
		for len(ev.asks) < asksPerEvent && next < len(c.fresh) {
			v := c.fresh[next]
			next++
			if !seen[v.ID] {
				seen[v.ID] = true
				ev.asks = append(ev.asks, v)
			}
		}
		if len(ev.asks) < asksPerEvent {
			break
		}
		out = append(out, ev)
	}
	return out, nil
}

// settle returns freed memory to the OS after set-up, so garbage from
// generation and training is not collected during the timed phase.
func settle() { debug.FreeOSMemory() }
