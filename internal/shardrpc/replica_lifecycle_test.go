// replica_lifecycle_test.go covers the replica-set machinery over the
// real transport: the /livez //readyz probe split, the GET-snapshot
// export that feeds the supervisor's auto-reseed, the slot-major
// DialReplicaRouter topology, and the all-replicas-down lifecycle — a
// slot with zero healthy replicas must serve the typed shard_unavailable
// partial result (not hang) and recover automatically once ANY replica
// returns and the supervisor reseeds it from a healthy sibling.
package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/shard"
)

// TestLivezReadyzSplit: /livez answers 200 for any serving process,
// /readyz answers 503 until the shard is booted AND trained.
func TestLivezReadyzSplit(t *testing.T) {
	lb := startLoopback(t, 0, 2)
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get("http://" + lb.addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Blank shardd: alive (restarting it would not help) but not ready.
	if resp := get("/shard/v1/livez"); resp.StatusCode != http.StatusOK {
		t.Fatalf("blank livez = %d, want 200", resp.StatusCode)
	}
	if resp := get("/shard/v1/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("blank readyz = %d, want 503", resp.StatusCode)
	}

	// Booted + trained: ready.
	c := NewClient(lb.addr, 0, 2)
	defer c.Close()
	if err := c.Handoff(context.Background(), tinySnapshot(t)); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if resp := get("/shard/v1/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("booted readyz = %d, want 200", resp.StatusCode)
	}
}

// TestRetiredShardRoutes: the removed per-item recommend exchange and the
// old health alias answer 404 on a booted shard, counted under the
// shared "unmatched" route label.
func TestRetiredShardRoutes(t *testing.T) {
	lb := startLoopback(t, 0, 1)
	bootClient(t, lb)
	for _, r := range []struct{ method, path string }{
		{http.MethodPost, "/shard/v1/recommend"},
		{http.MethodGet, "/shard/v1/health"},
	} {
		req, err := http.NewRequest(r.method, "http://"+lb.addr+r.path, strings.NewReader(`{"item":{"id":"x","category":"music"}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", r.method, r.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", r.method, r.path, resp.StatusCode)
		}
	}
	var exp strings.Builder
	if _, err := lb.srv.Metrics().WriteTo(&exp); err != nil {
		t.Fatal(err)
	}
	if want := `ssrec_shard_rpc_requests_total{route="unmatched"} 2`; !strings.Contains(exp.String(), want) {
		t.Errorf("metrics lack %q:\n%s", want, exp.String())
	}
}

// TestSnapshotExportRoundTrip: GET /shard/v1/snapshot refuses on a blank
// shard with the typed unavailable error, and once booted exports bytes
// that seed another replica bit-compatibly — the exact path the
// supervisor's auto-reseed walks.
func TestSnapshotExportRoundTrip(t *testing.T) {
	ctx := context.Background()
	tc := buildTinyCorpus()
	src := startLoopback(t, 0, 2)
	cSrc := NewClient(src.addr, 0, 2)
	defer cSrc.Close()

	if _, err := cSrc.Snapshot(ctx); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("blank snapshot export: err = %v, want ErrShardUnavailable", err)
	}

	if err := cSrc.Handoff(ctx, tinySnapshot(t)); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	data, err := cSrc.Snapshot(ctx)
	if err != nil {
		t.Fatalf("snapshot export: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("snapshot export returned no bytes")
	}

	// The export seeds a blank sibling; both replicas then answer the same
	// query identically (the snapshot carries the complete replicated
	// state, the receiver rebuilds its own leaf partition on load).
	dst := startLoopback(t, 0, 2)
	cDst := NewClient(dst.addr, 0, 2)
	defer cDst.Close()
	if err := cDst.Handoff(ctx, data); err != nil {
		t.Fatalf("reseed handoff from export: %v", err)
	}
	o := core.ResolveOptions(core.WithK(5))
	want, err := cSrc.Recommend(ctx, tc.query, o, nil)
	if err != nil {
		t.Fatalf("source recommend: %v", err)
	}
	got, err := cDst.Recommend(ctx, tc.query, o, nil)
	if err != nil {
		t.Fatalf("reseeded recommend: %v", err)
	}
	if len(want.Recommendations) == 0 || fmt.Sprint(want.Recommendations) != fmt.Sprint(got.Recommendations) {
		t.Fatalf("reseeded replica diverged from its seed:\n  src: %v\n  dst: %v",
			want.Recommendations, got.Recommendations)
	}
}

// TestDialReplicaRouterTopology: the slot-major address grouping and its
// validation — 4 addrs at R=2 form 2 slots whose replicas answer with
// shard identity (i, 2); a count that does not divide is refused.
func TestDialReplicaRouterTopology(t *testing.T) {
	ctx := context.Background()
	tc := buildTinyCorpus()
	var addrs []string
	for i := 0; i < 2; i++ { // slot-major: [s0r0 s0r1 s1r0 s1r1]
		for j := 0; j < 2; j++ {
			addrs = append(addrs, startLoopback(t, i, 2).addr)
		}
	}

	if _, err := DialReplicaRouter(addrs[:3], 2); err == nil {
		t.Fatal("3 addrs at R=2 must be refused")
	}

	r, err := DialReplicaRouter(addrs, 2)
	if err != nil {
		t.Fatalf("DialReplicaRouter: %v", err)
	}
	if got := r.Replicas(); got != 2 {
		t.Fatalf("Replicas() = %d, want 2", got)
	}
	if err := r.HandoffSnapshot(ctx, tinySnapshot(t)); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	res, err := r.RecommendCtx(ctx, tc.query, core.WithK(5))
	if err != nil {
		t.Fatalf("recommend: %v", err)
	}
	if len(res.Recommendations) == 0 {
		t.Fatal("replicated remote deployment returned nothing")
	}
	if states := r.ReplicaHealth(); len(states) != 4 {
		t.Fatalf("ReplicaHealth reported %d replicas, want 4: %+v", len(states), states)
	}
}

// TestAllReplicasDownLifecycle is the satellite acceptance test: a slot
// whose replicas are ALL dead serves the typed shard_unavailable partial
// result (bounded, no hang), keeps serving the surviving slot, and
// recovers automatically — without any manual runbook step — once one
// replica restarts blank at the same address and the supervisor reseeds
// it from a healthy sibling's exported snapshot.
func TestAllReplicasDownLifecycle(t *testing.T) {
	snap := tinySnapshot(t)
	tc := buildTinyCorpus()
	ctx := context.Background()

	// Slot 0: two plain loopbacks (they survive). Slot 1: two replicas on
	// pinned ports so both can be killed and one restarted blank.
	var members []shard.Shard
	var reps0 [2]*Client
	for j := 0; j < 2; j++ {
		c := NewClient(startLoopback(t, 0, 2).addr, 0, 2)
		defer c.Close()
		reps0[j] = c
	}
	rs0, err := shard.NewReplicaSet(0, reps0[0], reps0[1])
	if err != nil {
		t.Fatal(err)
	}
	members = append(members, rs0)

	var hs1 [2]*http.Server
	var addr1 [2]string
	var reps1 [2]*Client
	for j := 0; j < 2; j++ {
		srv, err := NewServer(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr1[j] = ln.Addr().String()
		hs1[j] = srv.NewHTTPServer(addr1[j])
		go hs1[j].Serve(ln) //nolint:errcheck
		c := NewClient(addr1[j], 1, 2)
		defer c.Close()
		reps1[j] = c
	}
	rs1, err := shard.NewReplicaSet(1, reps1[0], reps1[1])
	if err != nil {
		t.Fatal(err)
	}
	members = append(members, rs1)

	r, err := shard.NewRouter(members...)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.HandoffSnapshot(ctx, snap); err != nil {
		t.Fatalf("boot handoff: %v", err)
	}
	if _, err := r.RecommendCtx(ctx, tc.query, core.WithK(5)); err != nil {
		t.Fatalf("healthy recommend: %v", err)
	}

	// ---- kill BOTH slot-1 replicas ----
	hs1[0].Close()
	hs1[1].Close()

	// Zero healthy replicas: the slot serves the typed degraded partial
	// result within a bound — it must not hang.
	done := make(chan struct{})
	var res core.Result
	var degradedErr error
	go func() {
		defer close(done)
		res, degradedErr = r.RecommendCtx(ctx, tc.fresh[0], core.WithK(5))
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("all-replicas-down query hung")
	}
	if !errors.Is(degradedErr, shard.ErrShardUnavailable) {
		t.Fatalf("all-replicas-down recommend: err = %v, want ErrShardUnavailable", degradedErr)
	}
	if len(res.Recommendations) == 0 {
		t.Fatal("degraded mode returned no partial results from the surviving slot")
	}

	// The write path lands on the surviving slot and reports the typed
	// replication failure.
	rep, err := r.ObserveBatch(ctx, []core.Observation{
		{UserID: "user1", Item: tc.items[3], Timestamp: 900},
	})
	if !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("observe with a slot down: err = %v, want ErrShardUnavailable", err)
	}
	if rep.Applied != 1 {
		t.Fatalf("surviving slot did not apply the batch: %+v", rep)
	}

	// ---- restart ONE replica blank at its old address ----
	var lnB net.Listener
	for i := 0; ; i++ {
		lnB, err = net.Listen("tcp", addr1[1])
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("rebind %s: %v", addr1[1], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srvB, err := NewServer(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	hsB := srvB.NewHTTPServer(addr1[1])
	go hsB.Serve(lnB) //nolint:errcheck
	t.Cleanup(func() { hsB.Close() })

	// Reachable-but-blank is not enough: a bare probe must keep the slot
	// excluded (it missed replicated writes and has no engine at all).
	if up := r.Probe(ctx); len(up) != 0 {
		t.Fatalf("Probe re-included a blank replica: %v", up)
	}

	// The supervisor closes the loop: it pulls a snapshot from a healthy
	// sibling (slot 0 — any trained shard's export can seed any replica)
	// and hands it to the blank replica, clearing the slot's debt.
	sup := r.StartSupervisor(50 * time.Millisecond)
	defer sup.Stop()
	deadline := time.Now().Add(30 * time.Second)
	for len(r.Down()) != 0 {
		if time.Now().After(deadline) {
			st, _ := r.SupervisorStats()
			t.Fatalf("slot never recovered: Down()=%v supervisor=%+v health=%+v",
				r.Down(), st, r.ReplicaHealth())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if st, ok := r.SupervisorStats(); !ok || st.Reseeds < 1 {
		t.Fatalf("supervisor stats = %+v (ok=%v), want >= 1 reseed", st, ok)
	}

	// Recovered: queries are error-free again and the reseeded replica
	// serves slot 1's users. Its dead sibling stays excluded without
	// harming the slot.
	if _, err := r.RecommendCtx(ctx, tc.fresh[1], core.WithK(5)); err != nil {
		t.Fatalf("recommend after auto-recovery: %v", err)
	}
	var slot1Healthy int
	for _, st := range r.ReplicaHealth() {
		if st.Slot == 1 && st.State == "healthy" {
			slot1Healthy++
		}
	}
	if slot1Healthy == 0 {
		t.Fatalf("no healthy slot-1 replica after recovery: %+v", r.ReplicaHealth())
	}
}
