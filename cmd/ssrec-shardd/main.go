// Command ssrec-shardd serves ONE shard of a distributed ssRec deployment
// over the shard RPC protocol (internal/shardrpc): HTTP/2 + NDJSON, with
// the full-duplex bound-streaming recommend exchange, micro-batch
// replication, per-shard stats and the snapshot boot/handoff endpoint.
//
// A shardd always knows its identity — shard -index of an -of-wide
// deployment — and boots in one of two ways:
//
//	ssrec-shardd -addr :9101 -index 0 -of 2 -model engine.bin   # boot from a snapshot file
//	ssrec-shardd -addr :9102 -index 1 -of 2                     # blank: await a snapshot handoff
//
// A blank shardd answers liveness checks and 503s every
// serving endpoint until a router pushes a trained-engine snapshot to
// POST /shard/v1/snapshot (shard.Router.HandoffSnapshot, ssrec-server
// -shard-addrs, or ssrec.Open(..., ssrec.WithRemoteShards(...)).Train).
// The same handoff is the RECOVERY path: a shardd that crashed or was
// partitioned has missed replicated micro-batches and must be re-seeded
// with a fresh snapshot before the router re-includes it. See
// OPERATIONS.md for the runbook and deployment topologies.
//
// With -wal-dir the shardd is additionally durable on its own: every
// admitted write batch is appended (and per -wal-fsync, fsynced) to a
// segmented write-ahead log BEFORE it is applied, periodic checkpoints
// compact the log, and a restarted shardd recovers its exact pre-crash
// state from the latest checkpoint plus the log tail — no snapshot
// handoff needed:
//
//	ssrec-shardd -addr :9101 -index 0 -of 2 -model engine.bin -wal-dir /var/lib/ssrec/shard0
//	# ...crash, restart:
//	ssrec-shardd -addr :9101 -index 0 -of 2 -wal-dir /var/lib/ssrec/shard0   # recovers itself
//
// Probe it:
//
//	curl -s localhost:9101/shard/v1/livez   # liveness: 200 while the process is up
//	curl -s localhost:9101/shard/v1/readyz  # readiness: 200 only when booted AND trained
//	curl -s localhost:9101/shard/v1/stats
//
// Point restart probes at /livez and load-balancer membership at /readyz.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/shardrpc"
	"ssrec/internal/telemetry"
	"ssrec/internal/wal"
)

func main() {
	var (
		addr  = flag.String("addr", ":9100", "listen address")
		index = flag.Int("index", 0, "this shard's position in the deployment (0-based)")
		of    = flag.Int("of", 1, "deployment width (total shard count)")
		model = flag.String("model", "", "boot from a saved engine snapshot (core.SaveFile format); omit to await a snapshot handoff")

		partitions = flag.Int("partitions", 0, "intra-query search partitions; > 0 overrides the snapshot's setting and applies to handoff boots")
		boundFlush = flag.Duration("bound-flush", shardrpc.DefaultBoundFlush, "sampling interval of the bound-raise stream on the recommend exchange")
		authToken  = flag.String("auth-token", "", "shared bearer token: every endpoint (livez/readyz included) answers 401 without \"Authorization: Bearer <token>\"; pair with ssrec-server -auth-token / ssrec.WithAuthToken")

		walDir        = flag.String("wal-dir", "", "durable ingest WAL directory: every admitted write batch is logged before it is applied, and on boot the latest checkpoint plus the log tail are recovered (taking precedence over -model)")
		walFsync      = flag.String("wal-fsync", "batch", "WAL fsync policy: batch (sync before every ack), interval (background ticker), off (OS page cache only)")
		walSyncEvery  = flag.Duration("wal-sync-interval", 100*time.Millisecond, "fsync cadence of -wal-fsync=interval")
		walCheckpoint = flag.Duration("wal-checkpoint", time.Minute, "periodic checkpoint cadence: snapshot the engine into the WAL and compact the covered segments (0 disables)")

		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain window after SIGINT/SIGTERM")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof + GET /debug/exectrace on this side address (e.g. 127.0.0.1:6061; empty disables; never expose publicly)")
	)
	flag.Parse()

	srv, err := shardrpc.NewServer(*index, *of)
	if err != nil {
		log.Fatal(err)
	}
	srv.Parallelism = *partitions
	srv.BoundFlush = *boundFlush
	srv.AuthToken = *authToken
	if *authToken != "" {
		log.Printf("bearer auth enabled on every endpoint")
	}
	if *pprofAddr != "" {
		telemetry.ServePprof(*pprofAddr, func(err error) { log.Printf("pprof listener: %v", err) })
		log.Printf("pprof + exectrace serving on %s", *pprofAddr)
	}

	recovered := false
	if *walDir != "" {
		policy, err := wal.ParsePolicy(*walFsync)
		if err != nil {
			log.Fatalf("-wal-fsync: %v", err)
		}
		walLog, err := wal.Open(wal.Options{Dir: *walDir, Policy: policy, SyncInterval: *walSyncEvery})
		if err != nil {
			log.Fatalf("open wal %s: %v", *walDir, err)
		}
		defer walLog.Close() //nolint:errcheck // final checkpoint below is the durability point
		srv.WAL = walLog
		var replayed int
		recovered, replayed, err = srv.BootFromWAL(context.Background())
		if err != nil {
			log.Fatalf("recover from wal %s: %v", *walDir, err)
		}
		if recovered {
			st := walLog.Stats()
			log.Printf("shard %d/%d recovered from wal %s: checkpoint seq %d + %d replayed record(s), fsync=%s",
				*index, *of, *walDir, st.CheckpointSeq, replayed, policy)
			if *model != "" {
				log.Printf("-model %s ignored: the wal already holds this shard's state", *model)
			}
		} else {
			log.Printf("wal %s empty: logging writes from first boot, fsync=%s", *walDir, policy)
		}
	}

	if *model != "" && !recovered {
		f, err := os.Open(*model)
		if err != nil {
			log.Fatalf("open model: %v", err)
		}
		eng, err := core.LoadShardFrom(f, *index, *of)
		f.Close()
		if err != nil {
			log.Fatalf("boot shard %d/%d from %s: %v", *index, *of, *model, err)
		}
		// With a WAL, Boot anchors the fresh boot in a checkpoint so a
		// crash before the first periodic checkpoint still recovers to it.
		if err := srv.Boot(eng); err != nil {
			log.Fatalf("initial wal checkpoint: %v", err)
		}
		if ist, ok := eng.IndexStats(); ok {
			log.Printf("shard %d/%d booted from %s: %d/%d owned users, %d leaves",
				*index, *of, *model, ist.OwnedUsers, eng.Users(), ist.TotalLeafCount)
		}
	} else if !recovered {
		log.Printf("shard %d/%d blank: awaiting snapshot handoff on POST /shard/v1/snapshot", *index, *of)
	}

	stopCheckpoints := func() {}
	if srv.WAL != nil {
		stopCheckpoints = wal.CheckpointEvery(*walCheckpoint, srv.CheckpointWAL, func(err error) { log.Printf("wal checkpoint: %v", err) })
	}

	httpSrv := srv.NewHTTPServer(*addr)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("ssrec-shardd %d/%d listening on %s\n", *index, *of, *addr)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("shutdown signal received; draining for up to %v", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Printf("drain incomplete: %v", err)
			httpSrv.Close() //nolint:errcheck // force-close remaining connections
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		stopCheckpoints()
		if srv.WAL != nil {
			// A final checkpoint compacts the log so the next boot recovers
			// from one snapshot instead of a long replay; failure is not
			// fatal — the un-compacted log still replays exactly.
			if err := srv.CheckpointWAL(); err != nil {
				log.Printf("final wal checkpoint: %v", err)
			}
		}
		log.Printf("shard stopped")
	}
}
