// conformance_test.go is the REMOTE column of the stream-replay
// conformance matrix: the same seeded 11.5k-interaction workload the
// in-process suite (internal/shard) replays is driven through loopback
// shardd endpoints — real TCP, real HTTP/2, the multiplexed query
// stream — and must be bit-identical to the single reference engine:
//
//	transport   = remote (2 shardd endpoints)
//	shards      ∈ {2}
//	parallelism ∈ {1, 4}   (concurrent callers asking each query window)
//	plus one mixed cell: shard 0 in-process, shard 1 remote
//	plus one replicated cell: 2 slots x 2 replicas, 2 callers
//
// By default the suite serves the shards from in-process loopback
// listeners (self-contained, no processes to manage). Setting
// SSREC_SHARD_ADDRS=host:port,host:port points it at EXTERNAL shardd
// processes instead — the CI workflow runs it that way against two real
// `ssrec-shardd` daemons. Either way every cell (re)boots its shards from
// the shared fixture snapshot via the handoff endpoint, so state never
// leaks between cells.
package shardrpc

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/shard"
	"ssrec/internal/shardtest"
)

// conformanceAddrs resolves the two shard endpoints: external daemons
// from SSREC_SHARD_ADDRS, or fresh in-process loopback servers.
func conformanceAddrs(t *testing.T, n int) []string {
	if env := os.Getenv("SSREC_SHARD_ADDRS"); env != "" {
		addrs := SplitAddrs(env)
		if len(addrs) != n {
			t.Fatalf("SSREC_SHARD_ADDRS has %d endpoints, need %d", len(addrs), n)
		}
		t.Logf("using external shardd endpoints %v", addrs)
		return addrs
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = startLoopback(t, i, n).addr
	}
	return addrs
}

// remoteRouter dials the endpoints and boots every shard from the
// snapshot via the handoff protocol.
func remoteRouter(t *testing.T, addrs []string, snapshot []byte) *shard.Router {
	t.Helper()
	shards := make([]shard.Shard, len(addrs))
	for i, addr := range addrs {
		c := NewClient(addr, i, len(addrs))
		t.Cleanup(c.Close)
		shards[i] = c
	}
	r, err := shard.NewRouter(shards...)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	if err := r.HandoffSnapshot(context.Background(), snapshot); err != nil {
		t.Fatalf("snapshot handoff: %v", err)
	}
	return r
}

// TestConformanceRemoteStreamReplay is the network-transport acceptance
// gate: a 2-shard remote deployment replays the full seeded stream over
// loopback HTTP/2 and must be observably equivalent — identical ranked
// results, per-item errors and ingest reports — to the single engine,
// with each query window asked by 1 and by 4 concurrent callers.
func TestConformanceRemoteStreamReplay(t *testing.T) {
	fx := shardtest.Load(t)
	maxBatches := 0 // full stream
	parallelisms := []int{1, 4}
	if testing.Short() {
		maxBatches = 12
		parallelisms = []int{1}
	}
	const n = 2
	addrs := conformanceAddrs(t, n)

	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	want := fx.Replay(t, reference, maxBatches)
	t.Logf("reference transcript: %d micro-batches, %d interactions, %d queries",
		len(want.Reports), len(fx.Obs), len(want.Results)*shardtest.ReplayQueryLen)

	for _, p := range parallelisms {
		t.Run(fmt.Sprintf("remote/shards=%d/parallelism=%d", n, p), func(t *testing.T) {
			r := remoteRouter(t, addrs, fx.Snapshot) // handoff = per-cell state reset
			got := fx.ReplayCallers(t, r, maxBatches, p)
			shardtest.Diff(t, want, got, fmt.Sprintf("remote shards=%d p=%d", n, p))
			if down := r.Down(); len(down) != 0 {
				t.Fatalf("shards excluded during a healthy replay: %v", down)
			}
		})
	}
}

// TestConformanceRemoteReplicatedStreamReplay replays the stream through
// a replicated remote deployment assembled by Dial: 2 slots x 2 loopback
// replicas, booted by one snapshot handoff. Writes broadcast every
// micro-batch to both replicas of a slot over the wire and reads are
// load-balanced between them, with each query window asked by 2
// concurrent callers, and the transcript must be bit-identical to the
// single engine's with every replica still healthy at the end. It always
// serves from in-process loopbacks: SSREC_SHARD_ADDRS names two endpoints.
func TestConformanceRemoteReplicatedStreamReplay(t *testing.T) {
	fx := shardtest.Load(t)
	maxBatches := 0 // full stream
	if testing.Short() {
		maxBatches = 12
	}
	const slots, replicas = 2, 2

	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	want := fx.Replay(t, reference, maxBatches)

	var addrs []string
	for i := 0; i < slots*replicas; i++ {
		addrs = append(addrs, startLoopback(t, i/replicas, slots).addr)
	}
	r, err := Dial(addrs, replicas, "")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := r.HandoffSnapshot(context.Background(), fx.Snapshot); err != nil {
		t.Fatalf("snapshot handoff: %v", err)
	}
	got := fx.ReplayCallers(t, r, maxBatches, 2)
	shardtest.Diff(t, want, got, fmt.Sprintf("remote shards=%d replicas=%d", slots, replicas))
	for _, st := range r.ReplicaHealth() {
		if st.State != "healthy" || st.MissedWrite {
			t.Fatalf("replica left unhealthy by a healthy replay: %+v", st)
		}
	}
}

// TestConformanceRemoteSessionReplay is the remote column of the SESSION
// conformance matrix: the stream replayed as interleaved session traffic
// (Push per observation, Ask per query) through a Session over a 2-shard
// REMOTE router — every ask one multiplexed exchange over the per-shard
// query streams — must be bit-identical to the batch API driven at the
// same boundaries on the single engine.
func TestConformanceRemoteSessionReplay(t *testing.T) {
	fx := shardtest.Load(t)
	maxBatches := 0 // full stream
	if testing.Short() {
		maxBatches = 10
	}
	const n = 2
	addrs := conformanceAddrs(t, n)

	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	want := fx.ReplaySeq(t, reference, maxBatches)

	r := remoteRouter(t, addrs, fx.Snapshot)
	ses := core.NewSession(context.Background(), r, core.WithSessionBatch(shardtest.ReplayBatch))
	got := fx.ReplaySession(t, ses, maxBatches)
	shardtest.DiffResults(t, want, got, "session/remote shards=2")
	if down := r.Down(); len(down) != 0 {
		t.Fatalf("shards excluded during a healthy session replay: %v", down)
	}
}

// TestConformanceMixedLocalRemote proves the Router drives a MIX of
// in-process and remote shards transparently: shard 0 is a local engine,
// shard 1 a loopback shardd, and the pair still replays bit-identically
// to the single engine (a shortened schedule keeps the cell cheap — the
// full-stream remote cells above and in-process cells in internal/shard
// cover the long haul).
func TestConformanceMixedLocalRemote(t *testing.T) {
	fx := shardtest.Load(t)
	maxBatches := 24
	if testing.Short() {
		maxBatches = 8
	}
	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	want := fx.Replay(t, reference, maxBatches)

	eng0, err := core.LoadShardFrom(bytes.NewReader(fx.Snapshot), 0, 2)
	if err != nil {
		t.Fatalf("boot local shard: %v", err)
	}
	lb := startLoopback(t, 1, 2)
	c1 := NewClient(lb.addr, 1, 2)
	t.Cleanup(c1.Close)
	if err := c1.Handoff(context.Background(), fx.Snapshot); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	r, err := shard.NewRouter(shard.NewLocal(0, eng0), c1)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	got := fx.Replay(t, r, maxBatches)
	shardtest.Diff(t, want, got, "mixed local/remote")
}
