// throughput.go is the serving-throughput mode of ssrec-bench: it trains
// an engine on the leading third of a generated stream, then replays the
// remaining items as concurrent one-item RecommendBatch requests against
// the RWMutex engine — optionally with concurrent writers ingesting the
// post-training interaction stream through ObserveBatch — reporting
// reader and writer throughput plus the per-item latency distribution.
//
//	ssrec-bench -throughput -parallel 8 -partitions 4 -writers 2 -batch 64 -json out.json
//
// -parallel   N  concurrent request workers (serving concurrency)
// -partitions M  intra-query worker count (core.Config.Parallelism,
//
//	the paper's Fig 10 partition axis with real goroutines)
//
// -writers    W  concurrent ingestion workers (0 = read-only replay)
// -batch      B  observe micro-batch size: B interactions per write-lock
//
//	acquisition + index flush (ObserveBatch); B <= 1 sends
//	one-observation batches, the per-interaction baseline
//
// -shards     N  replay through an N-shard scatter-gather deployment
//
//	(internal/shard) booted from the trained engine's snapshot;
//	reader latency then includes the fan-out/merge and writers
//	measure the broadcast ingest with sharded leaf refreshes
//
// -remote-shards X  replay through REMOTE shardd endpoints over the shard
//
//	RPC transport (internal/shardrpc): X is either "N" — spawn N
//	loopback shards in-process (self-contained; still real TCP +
//	HTTP/2 + the bound-streaming query stream) — or a comma-separated
//	list of running ssrec-shardd addresses in shard-index order.
//	Either way the trained snapshot is pushed to every shard via
//	the handoff protocol before the replay; reader latency then
//	includes the network scatter/gather round trip
//
// -session  drive readers and writers through ordered Push/Ask sessions
//
//	(core.Session — the OpenSession path) instead of direct
//	RecommendBatch/ObserveBatch calls
//
// -wal <dir>  (single-engine only) interpose the durable ingest WAL
//
//	(wal.Durable — the exact production write path)
//	between the writers and the engine: every write batch is logged,
//	and per -fsync fsynced, BEFORE it is applied, so the writer
//	numbers measure the durability tax on the ingest path
//
// -fsync batch|interval|off  (with -wal) the log's fsync policy; the
//
//	batch-vs-off spread is the raw fsync cost per micro-batch, and
//	interval sits between (bounded loss window, amortised syncs)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/dataset"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/shardrpc"
	"ssrec/internal/wal"
)

// throughputConfig is the parsed flag set of the throughput mode.
type throughputConfig struct {
	Scale        float64
	Seed         int64
	Parallel     int
	Partitions   int
	Shards       int
	Replicas     int
	RemoteShards string
	Writers      int
	Batch        int
	K            int
	Session      bool
	WALDir       string // non-empty: wrap the single engine with the durable ingest WAL
	Fsync        string // WAL fsync policy: "batch", "interval" or "off"
	JSONPath     string
	ScrapeURL    string // non-empty: snapshot this /metrics exposition into the artifact
}

// bootRemoteShards stands up the -remote-shards deployment: a numeric
// spec "N" spawns N loopback shard servers in-process (still real TCP,
// HTTP/2 and the bound-streaming protocol — the self-contained way to
// measure the RPC transport), anything else is a comma-separated list of
// running ssrec-shardd addresses in shard-index order. Either way the
// trained engine's snapshot is pushed to every shard over the handoff
// protocol before the replay starts. replicas > 1
// replicates every slot that many ways: a numeric spec spawns N*replicas
// loopback servers (slot-major), an address list must already be
// slot-major with N*replicas entries; writes broadcast to every replica
// and reads load-balance across them, so the R=1 vs R=2 read numbers
// measure the replica fan-in directly.
func bootRemoteShards(eng *core.Engine, spec string, replicas int) (*shard.Router, int) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "throughput: "+format+"\n", args...)
		os.Exit(1)
	}
	if replicas < 1 {
		replicas = 1
	}
	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err != nil {
		fail("snapshot: %v", err)
	}
	var addrs []string
	if n, err := strconv.Atoi(spec); err == nil {
		if n < 1 {
			fail("-remote-shards %q: need at least 1 shard", spec)
		}
		for i := 0; i < n*replicas; i++ {
			srv, err := shardrpc.NewServer(i/replicas, n)
			if err != nil {
				fail("shard %d: %v", i/replicas, err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fail("shard %d: listen: %v", i/replicas, err)
			}
			go srv.NewHTTPServer(ln.Addr().String()).Serve(ln) //nolint:errcheck // lives for the process
			addrs = append(addrs, ln.Addr().String())
		}
		fmt.Fprintf(os.Stderr, "spawned %d loopback shards (%d slots x %d replicas): %s\n",
			n*replicas, n, replicas, strings.Join(addrs, ","))
	} else {
		addrs = shardrpc.SplitAddrs(spec)
		if len(addrs) == 0 {
			fail("-remote-shards %q: no addresses", spec)
		}
		if len(addrs)%replicas != 0 {
			fail("-remote-shards: %d addresses not divisible by -replicas %d", len(addrs), replicas)
		}
	}
	n := len(addrs) / replicas
	slots := make([]shard.Shard, n)
	for i := 0; i < n; i++ {
		group := make([]shard.Shard, replicas)
		for j := 0; j < replicas; j++ {
			group[j] = shardrpc.NewClient(addrs[i*replicas+j], i, n)
		}
		if replicas == 1 {
			slots[i] = group[0]
		} else {
			rs, err := shard.NewReplicaSet(i, group...)
			if err != nil {
				fail("slot %d: %v", i, err)
			}
			slots[i] = rs
		}
	}
	router, err := shard.NewRouter(slots...)
	if err != nil {
		fail("assemble remote deployment: %v", err)
	}
	if err := router.HandoffSnapshot(context.Background(), buf.Bytes()); err != nil {
		fail("snapshot handoff: %v", err)
	}
	return router, n
}

// benchBackend is the serving surface the replay drives — one engine, its
// WAL-backed wrapper or a sharded router, interchangeably: the v2 surface
// server.Backend serves, so -session can open sessions over it.
type benchBackend = core.SessionBackend

// ThroughputResult is the JSON report of one throughput run.
type ThroughputResult struct {
	Bench      string  `json:"bench"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	GoMaxProcs int     `json:"gomaxprocs"`
	hostInfo
	K           int     `json:"k"`
	Parallel    int     `json:"parallel"`            // concurrent request workers
	Partitions  int     `json:"partitions"`          // intra-query parallelism
	Shards      int     `json:"shards"`              // scatter-gather deployment width (1 = single engine)
	Replicas    int     `json:"replicas,omitempty"`  // replicas per shard slot (omitted when 1)
	Transport   string  `json:"transport,omitempty"` // "rpc" when the shards are remote (loopback or external)
	Session     bool    `json:"session,omitempty"`   // replay driven through sessions (Push/Ask) instead of direct calls
	Items       int     `json:"items"`
	TotalSec    float64 `json:"total_sec"`
	ItemsPerSec float64 `json:"items_per_sec"`
	MeanUs      float64 `json:"mean_us"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	MaxUs       float64 `json:"max_us"`

	// Writer-side numbers (zero when -writers 0).
	Writers             int     `json:"writers,omitempty"`
	Batch               int     `json:"batch,omitempty"`
	WriterItems         int     `json:"writer_items,omitempty"`
	WriterSec           float64 `json:"writer_sec,omitempty"`
	WriterItemsPerSec   float64 `json:"writer_items_per_sec,omitempty"`
	WriterFlushedUsers  int     `json:"writer_flushed_users,omitempty"`
	WriterLockAcquires  int     `json:"writer_lock_acquires,omitempty"`
	WriterMeanBatchSize float64 `json:"writer_mean_batch_size,omitempty"`

	// Durable-ingest numbers (zero without -wal).
	WALDir     string `json:"wal_dir,omitempty"`
	WALFsync   string `json:"wal_fsync,omitempty"`
	WALAppends uint64 `json:"wal_appends,omitempty"`
	WALSyncs   uint64 `json:"wal_syncs,omitempty"`
	WALBytes   int64  `json:"wal_bytes,omitempty"`

	// ScrapedMetrics snapshots a live /metrics exposition into the
	// artifact when -scrape-metrics is given (name{labels} → value).
	ScrapedMetrics map[string]float64 `json:"scraped_metrics,omitempty"`
}

func runThroughput(tc throughputConfig) {
	scale, seed := tc.Scale, tc.Seed
	parallel, partitions, shards := tc.Parallel, tc.Partitions, tc.Shards
	remoteShards, writers, batch, k := tc.RemoteShards, tc.Writers, tc.Batch, tc.K
	jsonPath := tc.JSONPath
	if parallel < 1 {
		parallel = 1
	}
	if batch < 1 {
		batch = 1
	}
	if shards < 1 {
		shards = 1
	}
	cfg := dataset.YTubeConfig(scale)
	cfg.Seed = seed
	ds := dataset.Generate(cfg)
	eng := core.New(core.Config{
		Categories:  ds.Categories,
		Parallelism: partitions,
		Seed:        seed,
	})
	nTrain := len(ds.Interactions) / 3
	if nTrain < 1 {
		fmt.Fprintf(os.Stderr, "throughput: dataset too small at scale %v (%d interactions)\n",
			scale, len(ds.Interactions))
		os.Exit(1)
	}
	if err := eng.Train(ds.Items, ds.Interactions[:nTrain], ds.Item); err != nil {
		fmt.Fprintf(os.Stderr, "throughput: train: %v\n", err)
		os.Exit(1)
	}
	// Replay items newer than the training horizon as queries.
	lastTS := ds.Interactions[nTrain-1].Timestamp
	var queries []model.Item
	for _, v := range ds.Items {
		if v.Timestamp > lastTS {
			queries = append(queries, v)
		}
	}
	if len(queries) == 0 {
		queries = ds.Items
	}
	if len(queries) == 0 {
		fmt.Fprintln(os.Stderr, "throughput: no items to replay")
		os.Exit(1)
	}
	// Sharded serving: boot an N-shard deployment from the trained
	// engine's snapshot — in-process (-shards) or over the shard RPC
	// transport (-remote-shards) — and replay through the scatter-gather
	// router.
	var backend benchBackend = eng
	register := eng.RegisterItem
	transport := ""
	if remoteShards != "" {
		router, n := bootRemoteShards(eng, remoteShards, tc.Replicas)
		backend, shards, transport = router, n, "rpc"
		register = router.RegisterItem
	} else if shards > 1 {
		var buf bytes.Buffer
		if err := eng.SaveTo(&buf); err != nil {
			fmt.Fprintf(os.Stderr, "throughput: snapshot: %v\n", err)
			os.Exit(1)
		}
		router, err := shard.FromSnapshot(buf.Bytes(), shards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "throughput: boot shards: %v\n", err)
			os.Exit(1)
		}
		backend = router
		register = router.RegisterItem
	}

	// Register every item up front so the measured section stays on the
	// read-locked path (registration is the write-lock upgrade).
	for _, v := range queries {
		register(v)
	}

	// -wal: interpose the durable ingest log — through wal.Durable, the
	// exact production write path — AFTER the boot-state setup (training
	// and registrations), anchored by a checkpoint the way a daemon anchors
	// its boot, so the log captures only the measured writes.
	var walLog *wal.Log
	if tc.WALDir != "" {
		if transport != "" || shards > 1 {
			fmt.Fprintln(os.Stderr, "throughput: -wal measures the single-engine ingest path; sharded durability lives in ssrec-shardd -wal-dir")
			os.Exit(1)
		}
		policy, err := wal.ParsePolicy(tc.Fsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "throughput: -fsync: %v\n", err)
			os.Exit(1)
		}
		walLog, err = wal.Open(wal.Options{Dir: tc.WALDir, Policy: policy, SyncInterval: 100 * time.Millisecond})
		if err != nil {
			fmt.Fprintf(os.Stderr, "throughput: open wal %s: %v\n", tc.WALDir, err)
			os.Exit(1)
		}
		d := wal.NewDurable(walLog, eng)
		if err := d.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "throughput: wal checkpoint: %v\n", err)
			os.Exit(1)
		}
		backend = d
	}

	// Writer stream: the post-training interactions, resolved to items.
	var obs []core.Observation
	if writers > 0 {
		for _, ir := range ds.Interactions[nTrain:] {
			v, ok := ds.Item(ir.ItemID)
			if !ok {
				continue
			}
			obs = append(obs, core.Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
		}
	}

	latencies := make([]time.Duration, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// -session: each worker is one continuous-recommendation
			// client — Ask on an ordered session stream, await the pushed
			// answer — measuring the session path end to end.
			var ses *core.Session
			if tc.Session {
				ses = core.NewSession(context.Background(), backend)
				defer ses.Close()
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				t0 := time.Now()
				if ses != nil {
					if err := ses.Ask(queries[i], core.WithK(k)); err != nil {
						return
					}
					<-ses.Results() // ordered: the one pending ask's answer
				} else {
					backend.RecommendBatch(context.Background(), queries[i:i+1], core.WithK(k)) //nolint:errcheck // latency probe; results unused
				}
				latencies[i] = time.Since(t0)
			}
		}()
	}

	// Concurrent writers: contiguous shards of the interaction stream,
	// ingested in micro-batches of `batch` (one write lock + one index
	// flush per micro-batch). batch <= 1 sends one-observation batches as
	// the amortisation baseline.
	var (
		writerWG sync.WaitGroup
		// writerEndNs is the elapsed-since-start time of the last writer
		// to finish (atomic max): writers start with the readers, so this
		// is the writer-side wall clock even when readers run longer.
		writerEndNs   atomic.Int64
		flushedUsers  atomic.Int64
		lockAcquires  atomic.Int64
		writerApplied atomic.Int64
	)
	if writers > 0 && len(obs) > 0 {
		shard := (len(obs) + writers - 1) / writers
		for w := 0; w < writers; w++ {
			lo := w * shard
			hi := min(lo+shard, len(obs))
			if lo >= hi {
				continue
			}
			writerWG.Add(1)
			go func(chunk []core.Observation) {
				defer writerWG.Done()
				if tc.Session {
					// -session: one ordered ingest stream per writer; the
					// session micro-batches Pushes into ObserveBatch calls.
					ses := core.NewSession(context.Background(), backend,
						core.WithSessionBatch(batch))
					for _, o := range chunk {
						if ses.Push(o) != nil {
							break
						}
					}
					ses.Close() //nolint:errcheck // stats read below
					st := ses.Stats()
					writerApplied.Add(int64(st.Admitted))
					flushedUsers.Add(int64(st.Flushed))
					lockAcquires.Add(int64(st.Batches))
				} else {
					for len(chunk) > 0 {
						n := min(batch, len(chunk))
						rep, _ := backend.ObserveBatch(context.Background(), chunk[:n])
						writerApplied.Add(int64(rep.Applied))
						flushedUsers.Add(int64(rep.Flushed))
						lockAcquires.Add(1)
						chunk = chunk[n:]
					}
				}
				end := time.Since(start).Nanoseconds()
				for {
					old := writerEndNs.Load()
					if end <= old || writerEndNs.CompareAndSwap(old, end) {
						break
					}
				}
			}(obs[lo:hi])
		}
	}

	wg.Wait()
	total := time.Since(start)
	writerWG.Wait()
	writerWall := time.Duration(writerEndNs.Load())

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	var sum time.Duration
	for _, d := range latencies {
		sum += d
	}
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	res := ThroughputResult{
		Bench:       "throughput",
		Dataset:     ds.Name,
		Scale:       scale,
		Seed:        seed,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		hostInfo:    captureHostInfo(),
		K:           k,
		Parallel:    parallel,
		Partitions:  partitions,
		Shards:      shards,
		Transport:   transport,
		Session:     tc.Session,
		Items:       len(queries),
		TotalSec:    total.Seconds(),
		ItemsPerSec: float64(len(queries)) / total.Seconds(),
		MeanUs:      us(sum / time.Duration(len(latencies))),
		P50Us:       us(pct(0.50)),
		P99Us:       us(pct(0.99)),
		MaxUs:       us(latencies[len(latencies)-1]),
	}
	if res.Transport == "rpc" && tc.Replicas > 1 {
		res.Replicas = tc.Replicas
	}
	shardsDesc := fmt.Sprintf("%d shards", res.Shards)
	if res.Transport == "rpc" {
		shardsDesc = fmt.Sprintf("%d remote shards", res.Shards)
		if res.Replicas > 1 {
			shardsDesc += fmt.Sprintf(" x%d replicas", res.Replicas)
		}
	}
	mode := ""
	if res.Session {
		mode = ", sessions"
	}
	fmt.Printf("throughput: %d items, %d workers, %d partitions, %s%s: %.0f items/sec  p50=%.0fµs p99=%.0fµs\n",
		res.Items, res.Parallel, res.Partitions, shardsDesc, mode, res.ItemsPerSec, res.P50Us, res.P99Us)
	if writers > 0 && writerWall > 0 {
		res.Writers = writers
		res.Batch = batch
		res.WriterItems = int(writerApplied.Load())
		res.WriterSec = writerWall.Seconds()
		res.WriterItemsPerSec = float64(writerApplied.Load()) / writerWall.Seconds()
		res.WriterFlushedUsers = int(flushedUsers.Load())
		res.WriterLockAcquires = int(lockAcquires.Load())
		if n := lockAcquires.Load(); n > 0 {
			res.WriterMeanBatchSize = float64(writerApplied.Load()) / float64(n)
		}
		fmt.Printf("ingest:     %d interactions, %d writers, batch=%d: %.0f interactions/sec, %d lock acquisitions\n",
			res.WriterItems, res.Writers, res.Batch, res.WriterItemsPerSec, res.WriterLockAcquires)
	}
	if walLog != nil {
		st := walLog.Stats()
		res.WALDir, res.WALFsync = st.Dir, string(st.Policy)
		res.WALAppends, res.WALSyncs, res.WALBytes = st.Appends, st.Syncs, st.Bytes
		fmt.Printf("wal:        %s fsync=%s: %d appends, %d syncs, %d bytes\n",
			res.WALDir, res.WALFsync, res.WALAppends, res.WALSyncs, res.WALBytes)
		walLog.Close() //nolint:errcheck // report already captured
	}
	if tc.ScrapeURL != "" {
		m, err := scrapeMetrics(tc.ScrapeURL)
		if err != nil {
			fmt.Fprintf(os.Stderr, "throughput: scrape-metrics: %v\n", err)
			os.Exit(1)
		}
		res.ScrapedMetrics = m
		fmt.Fprintf(os.Stderr, "scraped %d metric series from %s\n", len(m), tc.ScrapeURL)
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "throughput: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "throughput: encode: %v\n", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
	}
}
