package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/ranking"
)

// runLadders is the --trace 1 run. It replays a prefix of each workload's
// stream up that workload's layer ladder, booting every rung from the same
// snapshot, and reports every per-layer metric. The spans are the
// benchmark's own timers around calls into each layer's public functions;
// nothing is traced inside the program. All three ladders run whatever
// --workload names, because every per-layer metric is reported on every
// traced run.
func runLadders(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	steal0 := readSteal()
	big := generate(e.size.bigUsers, e.size.bigProducers, e.size.steps, e.seed)
	snap, err := big.writeSnapshot(e, "big.snap")
	if err != nil {
		return nil, err
	}
	e.logf("ytube-10k generated and trained")
	if err := queryLadder(ctx, e, o, big, snap); err != nil {
		return nil, fmt.Errorf("query ladder: %w", err)
	}
	e.logf("query ladder done")
	if err := ingestLadder(ctx, e, o, big, snap); err != nil {
		return nil, fmt.Errorf("ingest ladder: %w", err)
	}
	e.logf("ingest ladder done")
	settle()
	small := generate(e.size.smallUsers, e.size.smallProducers, e.size.steps, e.seed)
	snap, err = small.writeSnapshot(e, "small.snap")
	if err != nil {
		return nil, err
	}
	e.logf("ytube-5k generated and trained")
	if err := fleetLadder(ctx, e, o, small, snap); err != nil {
		return nil, fmt.Errorf("fleet ladder: %w", err)
	}
	e.logf("fleet ladder done")
	o.steal = readSteal() - steal0
	return o, nil
}

// queryLadder prices the per-item path on two engines booted from the
// same snapshot and fed the same items in turn: engine A answers each item
// with one RecommendCtx call, engine B takes the call's three steps one at
// a time (registration, query encoding, index search). Interleaving the
// two keeps the host's drift out of their difference; the residual is what
// the call adds around its steps (locking, the prologue, options).
func queryLadder(ctx context.Context, e *env, o *outcome, c corpus, snap string) error {
	items := c.fresh[:min(e.size.traceItems, len(c.fresh))]
	whole, err := loadSnapshot(snap)
	if err != nil {
		return err
	}
	steps, err := loadSnapshot(snap)
	if err != nil {
		return err
	}
	ix, x := steps.Index(), steps.Expander()
	var walk searchWalk // serial searches only: two workers sharing a bound prune in whatever order they run
	timedSearch := func(q ranking.ItemQuery, par int) ([]model.Recommendation, time.Duration, error) {
		t0 := time.Now()
		recs, st, err := ix.RecommendCtx(ctx, q, topK, par)
		d := time.Since(t0)
		if par == 1 {
			walk.add(st.NodesVisited, st.EntriesScored, st.EntriesSkipped)
		}
		return recs, d, err
	}
	settle()

	k := core.WithK(topK)
	seen := map[string]struct{}{}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	var (
		calls, reg, enc, search, serial, parallel []time.Duration
		mallocs                                   uint64
	)
	for i, v := range items {
		metrics.Read(allocs)
		a0 := allocs[0].Value.Uint64()
		t0 := time.Now()
		res, err := whole.RecommendCtx(ctx, v, k)
		calls = append(calls, time.Since(t0))
		metrics.Read(allocs)
		mallocs += allocs[0].Value.Uint64() - a0
		if err == nil {
			err = checkAnswer(v.ID, res.Recommendations, seen)
		}

		t0 = time.Now()
		steps.RegisterItem(v)
		t1 := time.Now()
		sc := ranking.GetQueryScratch()
		q := sc.BuildQuery(v, x)
		t2 := time.Now()
		reg, enc = append(reg, t1.Sub(t0)), append(enc, t2.Sub(t1))
		var recs, serialRecs []model.Recommendation
		var d, sd time.Duration
		var stepErr, serialErr error
		switch {
		case i >= e.size.traceSerial:
			recs, d, stepErr = timedSearch(q, parallelism)
		case i%2 == 0: // alternate which runs first, so neither always finds warm caches
			serialRecs, sd, serialErr = timedSearch(q, 1)
			recs, d, stepErr = timedSearch(q, parallelism)
		default:
			recs, d, stepErr = timedSearch(q, parallelism)
			serialRecs, sd, serialErr = timedSearch(q, 1)
		}
		ranking.PutQueryScratch(sc)
		search = append(search, d)
		if i < e.size.traceSerial {
			serial, parallel = append(serial, sd), append(parallel, d)
			if serialErr == nil && !sameAnswer(serialRecs, recs) {
				serialErr = errors.New("serial search differs from the parallel one")
			}
		}
		if stepErr == nil && err == nil && !sameAnswer(recs, res.Recommendations) {
			stepErr = fmt.Errorf("item %s: step-by-step answer differs from RecommendCtx", v.ID)
		}
		o.ops(1, errors.Join(err, stepErr, serialErr))
	}

	n := float64(len(items))
	us := func(ds []time.Duration) float64 { return mean(ds, time.Microsecond) }
	o.metrics["query.call_us"] = us(calls)
	o.metrics["core.register_us"] = us(reg)
	o.metrics["ranking.encode_us"] = us(enc)
	o.metrics["cppse.search_us"] = us(search)
	o.metrics["query.residual_us"] = us(calls) - (us(reg) + us(enc) + us(search))
	o.metrics["cppse.search_serial_us"] = us(serial)
	o.metrics["cppse.parallel_speedup"] = us(serial) / us(parallel)
	o.metrics["sigtree.nodes_per_item"] = float64(walk.nodes) / float64(len(serial))
	o.metrics["sigtree.scored_per_item"] = float64(walk.scored) / float64(len(serial))
	o.metrics["sigtree.prune_ratio"] = walk.pruneRatio()
	o.metrics["core.allocs_per_item"] = float64(mallocs) / n
	settle()
	return nil
}

// ingestLadder prices the write path batch by batch: the bench's own
// engine (ObserveBatch), ssrec-server without a WAL, and ssrec-server with
// the ingest workload's WAL. Each difference is taken between two rungs
// that run side by side on the same prefix, every batch going to both in
// turn and in alternating order, so the host's drift falls on both alike:
// first the engine beside the plain server, then the plain server beside
// the WAL server. Two 10k-user servers and the bench's engine are never
// alive at once. The top rung, the WAL server, is the ingest workload's own
// configuration; the residual is its mean minus the sum of the rungs, which
// is how far the plain server's two pairings disagree.
func ingestLadder(ctx context.Context, e *env, o *outcome, c corpus, snap string) error {
	all, err := c.batches()
	if err != nil {
		return err
	}
	batches := all[:min(e.size.traceBatches, len(all))]
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		if bodies[i], err = encodeBatch(b); err != nil {
			return err
		}
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	// Pair 1: the engine beside the plain server.
	eng, err := loadSnapshot(snap)
	if err != nil {
		return err
	}
	local := &ingestRung{name: "in-process engine", run: func(i int) (int, int, time.Duration, error) {
		t0 := time.Now()
		rep, err := eng.ObserveBatch(ctx, batches[i])
		return rep.Applied, rep.Flushed, time.Since(t0), err
	}}
	plain, err := e.ingestServer(ctx, hc, "ladder-server", bodies, "-model", snap)
	if err != nil {
		return err
	}
	err = interleave(ctx, o, len(batches), local, plain.rung)
	plain.kill()
	eng = nil // local's closure still refers to it
	settle()
	if err != nil {
		return err
	}

	// Pair 2: the plain server beside the WAL server.
	plain2, err := e.ingestServer(ctx, hc, "ladder-server", bodies, "-model", snap)
	if err != nil {
		return err
	}
	defer plain2.kill()
	walArgs := append([]string{"-model", snap, "-wal-dir", filepath.Join(e.dir, "ladder-wal")}, ingestFlags...)
	logged, err := e.ingestServer(ctx, hc, "ladder-wal-server", bodies, walArgs...)
	if err != nil {
		return err
	}
	defer logged.kill()
	before, err := getStats(ctx, logged.base)
	if err != nil {
		return err
	}
	if err := interleave(ctx, o, len(batches), plain2.rung, logged.rung); err != nil {
		return err
	}
	after, err := getStats(ctx, logged.base)
	if err != nil {
		return err
	}
	var walBytes int64
	if after.WAL != nil && before.WAL != nil {
		walBytes = after.WAL.Bytes - before.WAL.Bytes
	}
	for _, r := range []*ingestRung{plain.rung, plain2.rung, logged.rung} {
		if r.flushed != local.flushed {
			o.gate(fmt.Errorf("%s refreshed %d users, the in-process engine %d", r.name, r.flushed, local.flushed))
		}
	}

	ms := func(ds []time.Duration) float64 { return mean(ds, time.Millisecond) }
	coreMs, topMs := ms(local.lat), ms(logged.rung.lat)
	httpMs := ms(plain.rung.lat) - coreMs
	walMs := topMs - ms(plain2.rung.lat)
	o.metrics["core.observe_batch_ms"] = coreMs
	o.metrics["server.http_ms_per_batch"] = httpMs
	o.metrics["wal.append_ms_per_batch"] = walMs
	o.metrics["ingest.residual_ms"] = topMs - (coreMs + httpMs + walMs)
	o.metrics["cppse.users_refreshed_per_batch"] = float64(local.flushed) / float64(len(batches))
	o.metrics["wal.bytes_per_obs"] = float64(walBytes) / float64(len(batches)*batchSize)
	return nil
}

// ingestRung is one rung of the ingest ladder: run applies batch i and
// reports how many observations it applied, how many users it refreshed
// and how long the batch took.
type ingestRung struct {
	name    string
	run     func(i int) (applied, flushed int, d time.Duration, err error)
	lat     []time.Duration
	flushed int
}

// interleave sends every batch to each rung in turn, alternating which
// goes first, and checks that each applied the whole batch.
func interleave(ctx context.Context, o *outcome, n int, rungs ...*ingestRung) error {
	for i := 0; i < n; i++ {
		for j := range rungs {
			r := rungs[(i+j)%len(rungs)]
			applied, flushed, d, err := r.run(i)
			r.lat = append(r.lat, d)
			r.flushed += flushed
			if err == nil && applied != batchSize {
				err = fmt.Errorf("%s applied %d of %d observations", r.name, applied, batchSize)
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			o.ops(batchSize, err)
		}
	}
	return nil
}

// ladderServer is one ssrec-server rung of the ingest ladder.
type ladderServer struct {
	*proc
	base string
	rung *ingestRung
}

// ingestServer boots a server rung.
func (e *env) ingestServer(ctx context.Context, hc *http.Client, name string, bodies [][]byte, args ...string) (*ladderServer, error) {
	p, base, err := e.startServer(ctx, name, args...)
	if err != nil {
		return nil, err
	}
	return &ladderServer{proc: p, base: base, rung: &ingestRung{name: name, run: func(i int) (int, int, time.Duration, error) {
		t0 := time.Now()
		sum, ok, err := postObserve(ctx, hc, base, bodies[i])
		d := time.Since(t0)
		if err == nil && ok != sum.Applied {
			err = fmt.Errorf("%s: %d ok lines for %d applied", name, ok, sum.Applied)
		}
		return sum.Applied, sum.Flushed, d, err
	}}}, nil
}

// aloneBlock is how many events the fleet ladder's rungs take side by side
// before its standalone deployment takes the same events.
const aloneBlock = 10

// fleetRung is what one rung of the fleet ladder measured.
type fleetRung struct {
	asks    []time.Duration // asks 2 to 4 of each event: the pure read path
	events  []time.Duration
	answers [][]model.Recommendation
}

func (r fleetRung) askUs() float64   { return mean(r.asks, time.Microsecond) }
func (r fleetRung) eventMs() float64 { return mean(r.events, time.Millisecond) }

func (r *fleetRung) add(res eventResult) {
	r.asks = append(r.asks, res.asks[1:]...)
	r.events = append(r.events, res.total)
	r.answers = append(r.answers, res.answers[:]...)
}

// fleetLadder prices the session path event by event on four rungs that
// run side by side: the bench's own engine, ssrec-server on one engine,
// ssrec-server with two in-process shards, and ssrec-server over two
// ssrec-shardd. Every event goes to each rung in turn, in a rotating order,
// so the host's drift falls on all rungs alike; every rung must return the
// in-process rung's answers bit for bit. A second deployment of the
// fleet-5k topology takes the same events on its own, as the end-to-end run
// does, a block of aloneBlock events at a time after the rungs have taken
// them, so drift falls on it and on the rungs alike. The residual is its
// mean event time minus the sum of the rungs: what running event by event
// side by side changes.
func fleetLadder(ctx context.Context, e *env, o *outcome, c corpus, snap string) error {
	all, err := c.events()
	if err != nil {
		return err
	}
	events := all[:min(e.size.traceEvents, len(all))]

	eng, err := loadSnapshot(snap)
	if err != nil {
		return err
	}
	var (
		deps     []*deployment
		sessions []*sessionRunner
	)
	defer func() {
		for _, s := range sessions {
			s.close() //nolint:errcheck // error paths only; the success path checks
		}
		for _, d := range deps {
			d.kill()
		}
	}()
	boot := func(t topology) (*sessionRunner, error) {
		dep, err := e.startDeployment(ctx, snap, t)
		if err != nil {
			return nil, err
		}
		deps = append(deps, dep)
		sr, err := dialSession(ctx, dep.base)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, sr)
		return sr, nil
	}
	runners := []eventRunner{engineRunner(eng)}
	for _, t := range []topology{singleEngine, inProcShards, remoteShards, remoteShards} {
		sr, err := boot(t)
		if err != nil {
			return err
		}
		runners = append(runners, sr.event)
	}
	remote, remoteSession := deps[2], sessions[2]
	runAlone := runners[4]
	runners = runners[:4]
	settle()

	rungs := make([]fleetRung, len(runners))
	seen := map[string]struct{}{}
	before, err := readUsage(remote)
	if err != nil {
		return err
	}
	bytes0 := remoteSession.bytes.Load()
	var alone fleetRung
	for lo := 0; lo < len(events); lo += aloneBlock {
		block := events[lo:min(lo+aloneBlock, len(events))]
		for i, ev := range block {
			for j := range runners {
				r := (lo + i + j) % len(runners)
				res, err := runners[r](ctx, ev)
				if err != nil {
					return err
				}
				o.ops(1, res.check(ev, seen))
				rungs[r].add(res)
			}
		}
		for _, ev := range block {
			res, err := runAlone(ctx, ev)
			if err != nil {
				return err
			}
			o.ops(1, res.check(ev, seen))
			alone.add(res)
		}
	}
	use, err := readUsage(remote)
	if err != nil {
		return err
	}
	use = use.since(before)
	clientBytes := remoteSession.bytes.Load() - bytes0
	for _, s := range sessions {
		if err := s.close(); err != nil {
			o.gate(fmt.Errorf("close session: %w", err))
		}
	}

	local, single, sharded, remoteRung := rungs[0], rungs[1], rungs[2], rungs[3]
	for _, rung := range []struct {
		name string
		r    fleetRung
	}{
		{"single-engine session", single}, {"2-shard session", sharded},
		{"2-shardd session", remoteRung}, {"2-shardd session alone", alone},
	} {
		compareTranscripts(o, rung.name+" vs the in-process engine", rung.r.answers, local.answers)
	}

	n := float64(len(events))
	sessionEvent := single.eventMs() - local.eventMs()
	broadcastEvent := sharded.eventMs() - single.eventMs()
	rpcEvent := remoteRung.eventMs() - sharded.eventMs()
	o.metrics["core.ask_us"] = local.askUs()
	o.metrics["core.event_ms"] = local.eventMs()
	o.metrics["server.session_ask_us"] = single.askUs() - local.askUs()
	o.metrics["server.session_event_ms"] = sessionEvent
	o.metrics["shard.scatter_ask_us"] = sharded.askUs() - single.askUs()
	o.metrics["shard.broadcast_event_ms"] = broadcastEvent
	o.metrics["shardrpc.rpc_ask_us"] = remoteRung.askUs() - sharded.askUs()
	o.metrics["shardrpc.rpc_event_ms"] = rpcEvent
	o.metrics["shardrpc.bytes_per_event"] = float64(use.sharddBytes) / n
	o.metrics["server.bytes_per_event"] = float64(clientBytes) / n
	o.metrics["server.cpu_us_per_event"] = float64(use.serverCPU.Microseconds()) / n
	o.metrics["shardrpc.shardd_cpu_us_per_event"] = float64(use.sharddCPU.Microseconds()) / n
	rungSum := local.eventMs() + sessionEvent + broadcastEvent + rpcEvent
	o.metrics["fleet.residual_pct"] = 100 * (alone.eventMs() - rungSum) / alone.eventMs()
	return nil
}

// usage is the CPU and shardd traffic of one deployment.
type usage struct {
	sharddBytes          int64 // read and write calls of the shardds
	serverCPU, sharddCPU time.Duration
}

func readUsage(dep *deployment) (usage, error) {
	var u usage
	var err error
	if u.serverCPU, err = procCPU(dep.server.pid()); err != nil {
		return u, err
	}
	for _, p := range dep.shardds {
		b, err := ioBytes(strconv.Itoa(p.pid()))
		if err != nil {
			return u, err
		}
		c, err := procCPU(p.pid())
		if err != nil {
			return u, err
		}
		u.sharddBytes, u.sharddCPU = u.sharddBytes+b, u.sharddCPU+c
	}
	return u, nil
}

func (u usage) since(before usage) usage {
	return usage{
		sharddBytes: u.sharddBytes - before.sharddBytes,
		serverCPU:   u.serverCPU - before.serverCPU, sharddCPU: u.sharddCPU - before.sharddCPU,
	}
}
