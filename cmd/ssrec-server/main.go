// Command ssrec-server serves a trained ssRec engine over the JSON HTTP
// API of internal/server (the v2 batch-first protocol and /v2/session).
//
// Either load a model saved with the library's persistence support:
//
//	ssrec-server -model engine.bin -addr :8080
//
// or bootstrap a demo engine on generated data:
//
//	ssrec-server -demo -scale 0.3 -addr :8080
//
// Either way, -shards N serves the same snapshot as an N-shard
// scatter-gather deployment (internal/shard): identical wire responses,
// with per-shard entries in /v2/stats:
//
//	ssrec-server -demo -shards 4 -addr :8080
//
// and -shard-addrs serves it from REMOTE shardd processes
// (cmd/ssrec-shardd) instead — the snapshot is pushed to every address
// over the handoff protocol, then queries scatter-gather over HTTP/2 with
// shared-lower-bound pruning and failover (see OPERATIONS.md):
//
//	ssrec-shardd -addr :9101 -index 0 -of 2 &
//	ssrec-shardd -addr :9102 -index 1 -of 2 &
//	ssrec-server -demo -shard-addrs 127.0.0.1:9101,127.0.0.1:9102 -addr :8080
//
// -replicas R replicates every shard slot R ways for fault-tolerant
// reads: writes broadcast to all replicas of a slot, reads load-balance
// across the healthy ones, and a background supervisor (-supervise)
// auto-reseeds crashed replicas from a healthy sibling. In-process it
// serves -shards slots (1 without it) of R engines each; the -shard-addrs
// list becomes slot-major with shards*R entries (slot i's replicas are
// entries i*R .. i*R+R-1):
//
//	ssrec-server -demo -replicas 2 \
//	  -shard-addrs 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9201,127.0.0.1:9202
//
// Every router deployment (-shards, -replicas or -shard-addrs) refuses
// -wal-dir; make it durable per shard with ssrec-shardd -wal-dir.
//
// Then:
//
//	curl -s localhost:8080/v2/stats
//	curl -s -X POST localhost:8080/v2/recommend \
//	  -d '{"items":[{"id":"x","category":"cat02","producer":"up0003","entities":["c02e001"]}],"k":5}'
//	printf '%s\n' '{"user_id":"u1","item":{"id":"x","category":"cat02"},"timestamp":1}' |
//	  curl -s -X POST --data-binary @- localhost:8080/v2/observe
//
// The server drains gracefully on SIGINT/SIGTERM: in-flight requests get
// -drain-timeout to finish before the listener is torn down.
package main

import (
	"bytes"
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
	"ssrec/internal/dataset"
	"ssrec/internal/evalx"
	"ssrec/internal/server"
	"ssrec/internal/shard"
	"ssrec/internal/shardrpc"
	"ssrec/internal/telemetry"
	"ssrec/internal/wal"
)

func main() {
	var (
		addr  = flag.String("addr", ":8080", "listen address")
		model = flag.String("model", "", "path to a saved engine (core.SaveFile format)")
		demo  = flag.Bool("demo", false, "bootstrap a demo engine on generated data")
		scale = flag.Float64("scale", 0.3, "demo dataset scale")
		seed  = flag.Int64("seed", 42, "demo dataset seed")

		shards     = flag.Int("shards", 1, "serve an N-shard scatter-gather deployment (every shard boots from the same model/demo snapshot)")
		replicas   = flag.Int("replicas", 1, "replicate every shard slot R ways (one slot without -shards): writes broadcast to all replicas, reads load-balance across healthy ones; with -shard-addrs the list must be slot-major with shards*R entries")
		supervise  = flag.Duration("supervise", shard.DefaultSupervisorInterval, "replica supervisor sweep interval (auto-reseed of stale/blank replicas from a healthy sibling; 0 disables; only with -replicas > 1)")
		shardAddrs = flag.String("shard-addrs", "", "comma-separated ssrec-shardd addresses (shard-index order, or slot-major with -replicas); serve a remote deployment, pushing the model/demo snapshot to every shard")
		save       = flag.String("save", "", "after -demo training, save the engine here (core.SaveFile format)")

		maxK         = flag.Int("max-k", 100, "cap on per-request k")
		maxBatch     = flag.Int("max-batch", 256, "cap on items per /v2/recommend call")
		batchSize    = flag.Int("batch-size", 64, "observe/session micro-batch: command lines per ObserveBatch call")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "HTTP read timeout (bulk NDJSON ingests count against it; /v2/session clears it per stream)")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "HTTP write timeout (/v2/session clears it per stream)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain window after SIGINT/SIGTERM")

		walDir        = flag.String("wal-dir", "", "durable ingest WAL directory for the single-engine server: every admitted write is logged before it is applied, and on boot the latest checkpoint plus the log tail are recovered (taking precedence over -model/-demo; incompatible with -shards/-replicas/-shard-addrs — give each shardd its own -wal-dir instead)")
		walFsync      = flag.String("wal-fsync", "batch", "WAL fsync policy: batch (sync before every ack), interval (background ticker), off (OS page cache only)")
		walSyncEvery  = flag.Duration("wal-sync-interval", 100*time.Millisecond, "fsync cadence of -wal-fsync=interval")
		walCheckpoint = flag.Duration("wal-checkpoint", time.Minute, "periodic checkpoint cadence: snapshot the engine into the WAL and compact the covered segments (0 disables)")

		authToken     = flag.String("auth-token", "", "shared bearer token: required on every /v2/* call (including /v2/session) AND presented to -shard-addrs shardds (pair with ssrec-shardd -auth-token)")
		adminReshard  = flag.Bool("admin-reshard", false, "enable POST /v2/reshard: online in-process split/merge of a -shards deployment to the requested width (403 when off; pair with -auth-token in production)")
		maxSessions   = flag.Int("max-sessions", 64, "cap on concurrent /v2/session streams (excess rejected 503 + Retry-After; <= 0 disables)")
		sessionCredit = flag.Int("session-credit", server.DefaultSessionCredit, "per-session flow-control window (command lines in flight before the client must wait for credit)")
		sessionRate   = flag.Float64("session-rate", 0, "per-session rate limit in command lines/sec (token bucket; 0 = unpaced)")
		sessionBurst  = flag.Int("session-burst", 0, "token-bucket burst of -session-rate (default max(1, rate))")
		sessionLinger = flag.Duration("session-linger", 200*time.Millisecond, "flush a session's pending observations at most this long after the first arrives (<= 0 disables the timer)")

		principalRate  = flag.Float64("principal-rate", 0, "per-principal request quota in requests/sec on /v2/* (principal = bearer token when -auth-token is set, else client host; token bucket; 0 = unlimited)")
		principalBurst = flag.Int("principal-burst", 0, "token-bucket burst of -principal-rate (default max(1, rate))")

		traceAll  = flag.Bool("trace", false, "trace EVERY request (otherwise only requests carrying an X-Ssrec-Trace header are traced); fetch span trees via GET /v2/trace/{id}")
		traceSlow = flag.Duration("trace-slow", 0, "slow-query log threshold: a traced request slower than this logs its full span tree to stderr (0 disables)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof + GET /debug/exectrace on this side address (e.g. 127.0.0.1:6060; empty disables; never expose publicly)")
	)
	flag.Parse()

	// Resolve the serving state: a saved model file or a freshly trained
	// demo engine. With -shards or -replicas > 1 a snapshot boots every
	// member of a scatter-gather deployment, and with -shard-addrs it is
	// pushed to every remote shardd over the handoff protocol; a
	// single-engine server keeps the trained/loaded engine directly (no
	// snapshot round-trip).
	remote := shardrpc.SplitAddrs(*shardAddrs)
	sharded := *shards > 1 || *replicas > 1 || len(remote) > 0
	if *walDir != "" && sharded {
		log.Fatal("-wal-dir applies to the single-engine server only; make a sharded or replicated deployment durable per shard with ssrec-shardd -wal-dir")
	}
	var (
		eng      *core.Engine
		snapshot []byte
		walLog   *wal.Log
		durable  *wal.Durable
	)
	if *walDir != "" {
		policy, err := wal.ParsePolicy(*walFsync)
		if err != nil {
			log.Fatalf("-wal-fsync: %v", err)
		}
		walLog, err = wal.Open(wal.Options{Dir: *walDir, Policy: policy, SyncInterval: *walSyncEvery})
		if err != nil {
			log.Fatalf("open wal %s: %v", *walDir, err)
		}
		defer walLog.Close() //nolint:errcheck // final checkpoint below is the durability point
		var replayed int
		durable, replayed, err = wal.Recover(context.Background(), walLog, core.LoadFrom)
		switch {
		case err != nil:
			log.Fatalf("recover from wal %s: %v", *walDir, err)
		case durable != nil:
			eng = durable.Engine()
			log.Printf("engine recovered from wal %s: checkpoint seq %d + %d replayed record(s), fsync=%s (%d users)",
				*walDir, walLog.Stats().CheckpointSeq, replayed, policy, eng.Users())
			if *model != "" || *demo {
				log.Printf("-model/-demo ignored: the wal already holds the serving state")
			}
		default:
			log.Printf("wal %s empty: logging writes from first boot, fsync=%s", *walDir, policy)
		}
	}
	switch {
	case durable != nil:
		// Serving state came from the WAL above.
	case *model != "" && sharded:
		// Every member boots from (or is pushed) the same bytes.
		data, err := os.ReadFile(*model)
		if err != nil {
			log.Fatalf("load model: %v", err)
		}
		snapshot = data
		log.Printf("loaded model snapshot from %s (%d bytes)", *model, len(snapshot))
	case *model != "":
		var err error
		if eng, err = core.LoadFile(*model); err != nil {
			log.Fatalf("boot engine: %v", err)
		}
		log.Printf("engine ready from %s (%d users)", *model, eng.Users())
	case *demo:
		cfg := dataset.YTubeConfig(*scale)
		cfg.Seed = *seed
		ds := dataset.Generate(cfg)
		eng = core.New(core.Config{Categories: ds.Categories, Seed: *seed})
		if err := evalx.Train(eng, ds, evalx.Setup{}); err != nil {
			log.Fatalf("train demo engine: %v", err)
		}
		log.Printf("demo engine trained: %s", ds.ComputeStats())
		if *save != "" || sharded {
			var buf bytes.Buffer
			if err := eng.SaveTo(&buf); err != nil {
				log.Fatalf("snapshot demo engine: %v", err)
			}
			snapshot = buf.Bytes()
		}
		if *save != "" {
			if err := os.WriteFile(*save, snapshot, 0o644); err != nil {
				log.Fatalf("save model: %v", err)
			}
			log.Printf("saved engine to %s", *save)
		}
	default:
		log.Fatal("either -model or -demo is required")
	}

	var backend server.Backend
	var supervisor *shard.Supervisor
	if sharded {
		var (
			router *shard.Router
			err    error
		)
		if len(remote) > 0 {
			// ONE -auth-token secures both roles: this server's /v2
			// surface and its client legs into the shardd fleet.
			if router, err = shardrpc.Dial(remote, *replicas, *authToken); err != nil {
				log.Fatalf("assemble remote deployment: %v", err)
			}
			log.Printf("pushing snapshot to %d remote shard(s), slot-major: %v", len(remote), remote)
			if err := router.HandoffSnapshot(context.Background(), snapshot); err != nil {
				log.Fatalf("snapshot handoff: %v", err)
			}
		} else {
			if router, err = shard.Open(shard.Topology{Slots: *shards, Replicas: *replicas, Member: shard.Booted(snapshot)}); err != nil {
				log.Fatalf("boot %d-shard deployment: %v", *shards, err)
			}
		}
		for _, st := range router.ShardStats() {
			log.Printf("slot %d (%d replicas): %d/%d owned users, %d leaves", st.Shard, router.Replicas(), st.OwnedUsers, st.Users, st.Leaves)
		}
		if *replicas > 1 && *supervise > 0 {
			supervisor = router.StartSupervisor(*supervise)
			log.Printf("replica supervisor running (sweep every %v, %d replicas/slot)", *supervise, *replicas)
		}
		backend = router
	} else {
		backend = eng
	}

	if walLog != nil {
		// Durable single-engine serving: writes append to the log before
		// they apply, so an acked write is recoverable.
		if durable == nil {
			durable = wal.NewDurable(walLog, eng)
		}
		// Anchor the boot state: a crash before the first periodic
		// checkpoint must still recover to it.
		if err := durable.Checkpoint(); err != nil {
			log.Fatalf("initial wal checkpoint: %v", err)
		}
		backend = durable
	}

	srv := server.New(backend)
	srv.MaxK = *maxK
	srv.MaxBatch = *maxBatch
	srv.BatchSize = *batchSize
	srv.AuthToken = *authToken
	srv.MaxSessions = *maxSessions
	srv.SessionCredit = *sessionCredit
	srv.SessionRate = *sessionRate
	srv.SessionBurst = *sessionBurst
	srv.SessionLinger = *sessionLinger
	srv.AdminReshard = *adminReshard
	srv.TraceAll = *traceAll
	srv.PrincipalRate = *principalRate
	srv.PrincipalBurst = *principalBurst
	if *traceSlow > 0 {
		srv.Tracer().SlowThreshold = *traceSlow
		srv.Tracer().SlowWriter = os.Stderr
		log.Printf("slow-query log enabled: traced requests over %v dump their span tree", *traceSlow)
	}
	if *traceAll {
		log.Printf("request tracing enabled for every request (GET /v2/trace/{id})")
	}
	if *principalRate > 0 {
		log.Printf("per-principal quota enabled: %.3g req/s on /v2/*", *principalRate)
	}
	if *pprofAddr != "" {
		telemetry.ServePprof(*pprofAddr, func(err error) { log.Printf("pprof listener: %v", err) })
		log.Printf("pprof + exectrace serving on %s", *pprofAddr)
	}
	if *adminReshard {
		log.Printf("admin resharding enabled on POST /v2/reshard")
	}
	if *authToken != "" {
		log.Printf("bearer auth enabled on /v2/* (only /healthz and /metrics stay open)")
	}

	stopCheckpoints := func() {}
	if durable != nil {
		stopCheckpoints = wal.CheckpointEvery(*walCheckpoint, durable.Checkpoint, func(err error) { log.Printf("wal checkpoint: %v", err) })
	}
	// Serve HTTP/1.1 AND unencrypted HTTP/2 (h2c with prior knowledge):
	// the /v2/session full-duplex exchange needs h2c — request and
	// response stream concurrently on one stream, which a plaintext
	// HTTP/1.1 client cannot do — while every other route keeps working
	// over plain HTTP/1.1.
	protocols := new(http.Protocols)
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true)
	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      srv.Handler(),
		Protocols:    protocols,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("ssrec-server listening on %s\n", *addr)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("shutdown signal received; draining for up to %v", *drainTimeout)
		if supervisor != nil {
			supervisor.Stop()
		}
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
		if durable != nil {
			// Compact the log so the next boot recovers from one snapshot;
			// failure is not fatal — the un-compacted log replays exactly.
			if err := durable.Checkpoint(); err != nil {
				log.Printf("final wal checkpoint: %v", err)
			}
		}
		log.Printf("server stopped")
	}
}
