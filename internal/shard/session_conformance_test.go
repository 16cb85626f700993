// session_conformance_test.go: the Session ordering guarantee over
// in-process deployments. The seeded 11.5k-interaction stream is replayed
// as interleaved session traffic (Push per observation, Ask per query)
// into a single engine and into sharded routers, and every transcript
// must be bit-identical to the batch API driven at the same boundaries
// (the ReplaySeq reference). The remote-shard column lives in
// internal/shardrpc, the wire (/v2/session) column in internal/server.
package shard

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/shardtest"
)

func TestSessionConformanceStreamReplay(t *testing.T) {
	fx := fixture(t)
	maxBatches := 0 // full stream
	shardCounts := []int{2, 8}
	if testing.Short() {
		maxBatches = 12
		shardCounts = []int{2}
	}

	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	want := fx.ReplaySeq(t, reference, maxBatches)

	// Sessions flush exactly at the schedule's boundaries: micro-batch =
	// ReplayBatch, no linger timer.
	sessionOpts := []core.SessionOption{core.WithSessionBatch(shardtest.ReplayBatch)}

	t.Run("single", func(t *testing.T) {
		eng, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		ses := core.NewSession(context.Background(), eng, sessionOpts...)
		got := fx.ReplaySession(t, ses, maxBatches)
		shardtest.DiffResults(t, want, got, "session/single")
		assertSessionTotals(t, ses, maxBatches, fx)
	})

	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			r, err := boot(fx.Snapshot, n, 1)
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			ses := core.NewSession(context.Background(), r, sessionOpts...)
			got := fx.ReplaySession(t, ses, maxBatches)
			shardtest.DiffResults(t, want, got, fmt.Sprintf("session/shards=%d", n))
			assertSessionTotals(t, ses, maxBatches, fx)
		})
	}
}

// assertSessionTotals cross-checks the session's ingest summary against
// the schedule: every pushed observation must be admitted (the fixture
// stream is fully valid) across the expected number of flushes.
func assertSessionTotals(t *testing.T, ses *core.Session, maxBatches int, fx *shardtest.Fixture) {
	t.Helper()
	obs := len(fx.Obs)
	batches := (obs + shardtest.ReplayBatch - 1) / shardtest.ReplayBatch
	if maxBatches > 0 && batches > maxBatches {
		batches = maxBatches
		obs = maxBatches * shardtest.ReplayBatch
	}
	st := ses.Stats()
	if st.Pushed != uint64(obs) || st.Admitted != uint64(obs) || st.Rejected != 0 {
		t.Errorf("session ingest totals %+v, want %d pushed+admitted", st, obs)
	}
	if st.Batches != uint64(batches) {
		t.Errorf("session flushed %d batches, want %d (flush points must match the schedule)", st.Batches, batches)
	}
}
