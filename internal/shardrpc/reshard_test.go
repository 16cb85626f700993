// reshard_test.go is the REMOTE column of the online-resharding gate
// plus the width checks that guard it. The conformance test replays the
// shared seeded stream through a deployment that starts as ONE
// in-process shard, splits LIVE onto two shardd endpoints (real TCP,
// real HTTP/2 — the snapshot-handoff + mirrored catch-up protocol end to
// end) and later merges back in-process, and the transcript must stay
// bit-identical to the single reference engine.
// Setting SSREC_RESHARD_LOG writes a migration transcript artifact; the
// CI resharding-conformance job runs this against two real ssrec-shardd
// processes via SSREC_SHARD_ADDRS and uploads it.
package shardrpc

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/shard"
	"ssrec/internal/shardtest"
)

// TestRemoteReshardSplitMerge splits a live single-shard deployment onto
// two (possibly external) shardd endpoints mid-stream, merges back to
// one in-process shard a few batches later, and requires the full replay
// bit-identical to the static reference.
func TestRemoteReshardSplitMerge(t *testing.T) {
	fx := shardtest.Load(t)
	maxBatches := 0
	totalBatches := (len(fx.Obs) + shardtest.ReplayBatch - 1) / shardtest.ReplayBatch
	joinAfter := 6
	if testing.Short() {
		maxBatches = 16
		totalBatches = 16
		joinAfter = 3
	}

	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	want := fx.Replay(t, reference, maxBatches)

	// The deployment under test starts as one in-process shard.
	eng, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	r, err := shard.NewRouter(shard.NewLocal(0, eng))
	if err != nil {
		t.Fatalf("router: %v", err)
	}

	// The split targets: two shardd endpoints with the FINAL identity
	// (i of 2) — external daemons via SSREC_SHARD_ADDRS or in-process
	// loopback servers. Whatever state they hold is replaced by the
	// reshard's snapshot handoff.
	addrs := conformanceAddrs(t, 2)
	members := make([]shard.Shard, 2)
	for i, addr := range addrs {
		c := NewClient(addr, i, 2)
		t.Cleanup(c.Close)
		members[i] = c
	}

	rng := rand.New(rand.NewSource(41))
	splitAt := 1 + rng.Intn(totalBatches/3)
	splitJoin := splitAt + joinAfter
	mergeAt := splitJoin + 1 + rng.Intn(totalBatches/3)
	mergeJoin := mergeAt + joinAfter
	if mergeJoin >= totalBatches {
		t.Fatalf("schedule overflow: mergeJoin %d of %d batches", mergeJoin, totalBatches)
	}
	t.Logf("splitting 1→2 onto %v before batch %d (join %d), merging 2→1 in-process before batch %d (join %d), of %d batches",
		addrs, splitAt, splitJoin, mergeAt, mergeJoin, totalBatches)

	var transcript []string
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		transcript = append(transcript, line)
		t.Log(line)
	}
	logf("schedule split=%d splitJoin=%d merge=%d mergeJoin=%d total=%d addrs=%s",
		splitAt, splitJoin, mergeAt, mergeJoin, totalBatches, strings.Join(addrs, ","))

	ctx := context.Background()
	var splitErr, mergeErr error
	splitDone := make(chan struct{})
	mergeDone := make(chan struct{})
	hooks := map[int]func(int){
		splitAt: func(b int) {
			logf("batch=%d event=split-start to=2 transport=remote", b)
			go func() { defer close(splitDone); splitErr = r.Reshard(ctx, 2, members...) }()
		},
		splitJoin: func(b int) {
			<-splitDone
			if splitErr != nil {
				t.Fatalf("remote split: %v", splitErr)
			}
			if got := r.Shards(); got != 2 {
				t.Fatalf("post-split width %d, want 2", got)
			}
			st := r.ReshardStatus()
			logf("batch=%d event=split-done epoch=%d mirrored=%d migrating_blocks=%d",
				b, r.Epoch(), st.MirroredBatches, st.MigratingBlocks)
		},
		mergeAt: func(b int) {
			logf("batch=%d event=merge-start to=1 transport=in-process", b)
			go func() { defer close(mergeDone); mergeErr = r.Reshard(ctx, 1) }()
		},
		mergeJoin: func(b int) {
			<-mergeDone
			if mergeErr != nil {
				t.Fatalf("merge: %v", mergeErr)
			}
			if got := r.Shards(); got != 1 {
				t.Fatalf("post-merge width %d, want 1", got)
			}
			st := r.ReshardStatus()
			logf("batch=%d event=merge-done epoch=%d mirrored=%d", b, r.Epoch(), st.MirroredBatches)
		},
	}

	got := fx.ReplayWithHooks(t, r, shardtest.ReplayBatch, maxBatches, hooks)
	shardtest.Diff(t, want, got, "remote split + merge")

	if got := r.Epoch(); got != 2 {
		t.Fatalf("final epoch %d, want 2", got)
	}
	st := r.ReshardStatus()
	if st.Active || st.Phase != shard.ReshardPhaseDone || st.Completed != 2 {
		t.Fatalf("final reshard status %+v, want idle done with 2 completed", st)
	}
	logf("event=final completed=%d phase=%s identical=true", st.Completed, st.Phase)

	if path := os.Getenv("SSREC_RESHARD_LOG"); path != "" {
		if err := os.WriteFile(path, []byte(strings.Join(transcript, "\n")+"\n"), 0o644); err != nil {
			t.Fatalf("write reshard transcript: %v", err)
		}
		t.Logf("migration transcript written to %s", path)
	}
}

// TestReshardRefusesRemoteMemberWidth: a client addressing slot 1 of a
// 3-wide deployment is refused as a member of a reshard to 2 before the
// watermark — no shardd receives a handoff and the old fleet keeps
// serving.
func TestReshardRefusesRemoteMemberWidth(t *testing.T) {
	fx := shardtest.Load(t)
	eng, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	r, err := shard.NewRouter(shard.NewLocal(0, eng))
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	lbs := []*loopback{startLoopback(t, 0, 2), startLoopback(t, 1, 2)}
	members := []shard.Shard{NewClient(lbs[0].addr, 0, 2), NewClient(lbs[1].addr, 1, 3)}
	for _, m := range members {
		t.Cleanup(m.(*Client).Close)
	}
	ctx := context.Background()
	if err := r.Reshard(ctx, 2, members...); err == nil || !strings.Contains(err.Error(), "width 3") {
		t.Fatalf("err = %v, want a width refusal", err)
	}
	for i, lb := range lbs {
		if lb.srv.boot.Load() != nil {
			t.Fatalf("shardd %d booted by a refused reshard", i)
		}
	}
	if st := r.ReshardStatus(); st.Active || st.Phase != "" {
		t.Fatalf("refused reshard left status %+v", st)
	}
	if r.Shards() != 1 || r.Epoch() != 0 {
		t.Fatalf("refused reshard moved the fleet to width %d, epoch %d", r.Shards(), r.Epoch())
	}
	if _, err := r.RecommendBatch(ctx, fx.Queries[:shardtest.ReplayQueryLen], core.WithK(shardtest.ReplayK)); err != nil {
		t.Fatalf("old fleet after refusal: %v", err)
	}
}
