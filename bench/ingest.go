package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// ingestFlags are ssrec-server's durable-ingest settings: fsync and
// periodic checkpoints are off, because on a shared host disk flushes
// measure the disk rather than the code, and a checkpoint would land at a
// random point of the timed phase.
var ingestFlags = []string{"-wal-fsync", "off", "-wal-checkpoint", "0"}

// runIngest is ingest-10k: the write path. One connection POSTs the
// post-training interactions as 64-line /v2/observe requests to
// ssrec-server with a WAL, so each request is one ObserveBatch: profile
// updates, BiHMM prediction refresh, index leaf rebuilds and a WAL append.
// No search runs.
func runIngest(ctx context.Context, e *env) (*outcome, error) {
	c := generate(e.size.bigUsers, e.size.bigProducers, e.size.steps, e.seed)
	snap, err := c.writeSnapshot(e, "ingest.snap")
	if err != nil {
		return nil, err
	}
	batches, err := c.batches()
	if err != nil {
		return nil, err
	}
	if len(batches) <= e.size.ingestWarm {
		return nil, fmt.Errorf("only %d batches", len(batches))
	}
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		if bodies[i], err = encodeBatch(b); err != nil {
			return nil, err
		}
	}

	o := newOutcome()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	rs := newRounds()
	var refreshed, walBytes int64
	for r := 1; r <= e.size.ingestRounds; r++ {
		dir := filepath.Join(e.dir, "wal-"+strconv.Itoa(r))
		start := time.Now()
		srv, base, err := e.startServer(ctx, "ingest-server", append([]string{"-model", snap, "-wal-dir", dir}, ingestFlags...)...)
		if err != nil {
			return nil, err
		}
		rs.setups = append(rs.setups, time.Since(start))
		rs.host.sample()
		settle()
		booted, err := getStats(ctx, base)
		if err != nil {
			return nil, err
		}
		send := func(body []byte) (int, error) {
			sum, ok, err := postObserve(ctx, hc, base, body)
			if err == nil && (ok != batchSize || sum.Applied != batchSize || sum.Invalid != 0 || sum.Batches != 1 || sum.Error != nil) {
				err = fmt.Errorf("observe: %d ok lines, applied %d, invalid %d, batches %d, error %v",
					ok, sum.Applied, sum.Invalid, sum.Batches, sum.Error)
			}
			o.ops(batchSize, err)
			return sum.Flushed, err
		}
		// The counts cover the warm-up, a fixed prefix, so they repeat
		// exactly for one seed.
		refreshed = 0
		for _, body := range bodies[:e.size.ingestWarm] {
			flushed, err := send(body)
			if err != nil && ctx.Err() != nil {
				return nil, err
			}
			refreshed += int64(flushed)
		}
		warmed, err := getStats(ctx, base)
		if err != nil {
			return nil, err
		}

		timed := bodies[e.size.ingestWarm:]
		cpu0, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		seg := startSegment(e.segment(e.size.ingestRounds), cpu0)
		for _, body := range timed {
			if seg.over(e.size.maxOps) {
				break
			}
			t0 := time.Now()
			_, err := send(body)
			seg.lat(time.Since(t0))
			seg.done(batchSize)
			if err != nil && ctx.Err() != nil {
				return nil, err
			}
		}
		cpu1, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		rs.end(seg, cpu1)
		e.logf("ingest-10k round %d: %s", r, rs.last())
		rss, err := peakRSS(strconv.Itoa(srv.pid()))
		if err != nil {
			return nil, err
		}
		rs.rss = append(rs.rss, rss)
		if seg.reqs == len(timed) && e.size.maxOps == 0 {
			o.note("round %d: stream exhausted after %.2fs", r, seg.wall.Seconds())
		}
		after, err := getStats(ctx, base)
		if err != nil {
			return nil, err
		}
		srv.kill()
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("remove WAL directory: %w", err)
		}
		sent := uint64(e.size.ingestWarm + seg.reqs)
		switch {
		case after.WAL == nil || warmed.WAL == nil || booted.WAL == nil:
			o.gate(fmt.Errorf("round %d: /v2/stats reports no WAL", r))
		case after.WAL.Appends != sent:
			o.gate(fmt.Errorf("round %d: WAL appends %d, batches sent %d", r, after.WAL.Appends, sent))
		default:
			walBytes = warmed.WAL.Bytes - booted.WAL.Bytes
		}
	}

	rs.report(o)
	warmObs := float64(e.size.ingestWarm * batchSize)
	o.counts["cppse.users_refreshed_per_batch"] = float64(refreshed) / float64(e.size.ingestWarm)
	o.counts["wal.bytes_per_obs"] = float64(walBytes) / warmObs
	return o, nil
}
