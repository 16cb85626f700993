// reshard_test.go covers the HTTP face of online resharding: the
// flag-gated POST /v2/reshard admin trigger (403 when disabled, 501 for
// single-engine backends, 400 on bad input, 409 mid-migration, 202 and an
// asynchronous split on success) and the /v2/stats resharding block in
// both its idle and mid-migration states, golden-pinned against drift.
package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/sigtree"
)

// reshardingStats is the test-side decode of the /v2/stats resharding
// block plus the shard arity around it.
type reshardingStats struct {
	ShardCount int `json:"shard_count"`
	Resharding *struct {
		Active          bool   `json:"active"`
		Phase           string `json:"phase"`
		FromShards      int    `json:"from_shards"`
		ToShards        int    `json:"to_shards"`
		FromEpoch       uint64 `json:"from_epoch"`
		ToEpoch         uint64 `json:"to_epoch"`
		MigratingBlocks int    `json:"migrating_blocks"`
		Seeded          int    `json:"seeded"`
		MirroredBatches uint64 `json:"mirrored_batches"`
		Error           string `json:"error"`
		Completed       uint64 `json:"completed"`
	} `json:"resharding"`
}

func reshardStats(t *testing.T, h http.Handler) reshardingStats {
	t.Helper()
	rr := get(t, h, "/v2/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats status %d: %s", rr.Code, rr.Body.String())
	}
	var st reshardingStats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return st
}

// TestAdminReshardV2Gate: the trigger is refused without the flag, on
// single-engine backends, and on malformed or out-of-range bodies —
// and none of those refusals disturb the deployment.
func TestAdminReshardV2Gate(t *testing.T) {
	single, ds := testServer(t)
	single.AdminReshard = true
	if rr := post(t, single.Handler(), "/v2/reshard", map[string]any{"shards": 2}); rr.Code != http.StatusNotImplemented {
		t.Fatalf("single-engine reshard status %d, want 501", rr.Code)
	}

	s, _ := testShardedServer(t, 2)
	h := s.Handler()
	if rr := post(t, h, "/v2/reshard", map[string]any{"shards": 3}); rr.Code != http.StatusForbidden {
		t.Fatalf("disabled reshard status %d, want 403", rr.Code)
	}
	s.AdminReshard = true
	if rr := postRaw(t, h, "/v2/reshard", "application/json", []byte(`{"shards":`)); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d, want 400", rr.Code)
	}
	if rr := post(t, h, "/v2/reshard", map[string]any{"shards": 0}); rr.Code != http.StatusBadRequest {
		t.Fatalf("shards=0 status %d, want 400", rr.Code)
	}
	if st := reshardStats(t, h); st.ShardCount != 2 || st.Resharding == nil || st.Resharding.Completed != 0 {
		t.Fatalf("deployment disturbed by refused triggers: %+v", st)
	}
	// The single-engine refusal left its stats without a resharding block.
	post(t, single.Handler(), "/v2/recommend", map[string]any{"items": []map[string]any{itemBody(ds.Items[0])}, "k": 1})
	if st := reshardStats(t, single.Handler()); st.Resharding != nil {
		t.Fatalf("single-engine stats grew a resharding block: %+v", st.Resharding)
	}
}

// TestAdminReshardV2Split: an accepted trigger answers 202 immediately
// and the deployment splits 2→3 asynchronously; /v2/stats converges to
// the new width with a done, error-free migration record from epoch 0 to
// 1 that moved 4 of the 6 residues mod lcm(2, 3), and the resharded
// deployment still answers queries.
func TestAdminReshardV2Split(t *testing.T) {
	s, ds := testShardedServer(t, 2)
	s.AdminReshard = true
	h := s.Handler()

	rr := post(t, h, "/v2/reshard", map[string]any{"shards": 3})
	if rr.Code != http.StatusAccepted {
		t.Fatalf("reshard status %d: %s", rr.Code, rr.Body.String())
	}
	var ack struct {
		Accepted bool `json:"accepted"`
		Shards   int  `json:"shards"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &ack); err != nil || !ack.Accepted || ack.Shards != 3 {
		t.Fatalf("ack %s (err %v), want accepted shards=3", rr.Body.String(), err)
	}

	deadline := time.Now().Add(30 * time.Second)
	var st reshardingStats
	for {
		st = reshardStats(t, h)
		if st.Resharding != nil && st.Resharding.Completed == 1 && !st.Resharding.Active {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("split never completed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.ShardCount != 3 || st.Resharding.Phase != shard.ReshardPhaseDone ||
		st.Resharding.Error != "" || st.Resharding.FromShards != 2 || st.Resharding.ToShards != 3 {
		t.Fatalf("post-split stats %+v, want 3 shards after a clean 2→3 done migration", st)
	}
	if rs := st.Resharding; rs.FromEpoch != 0 || rs.ToEpoch != 1 || rs.MigratingBlocks != 4 {
		t.Fatalf("post-split epochs %d→%d, migrating_blocks %d; want 0→1 and 4", rs.FromEpoch, rs.ToEpoch, rs.MigratingBlocks)
	}
	qr := post(t, h, "/v2/recommend", map[string]any{"items": []map[string]any{itemBody(ds.Items[0])}, "k": 3})
	if qr.Code != http.StatusOK {
		t.Fatalf("post-split recommend status %d: %s", qr.Code, qr.Body.String())
	}
}

// stallMember is a reshard member whose snapshot handoff blocks until
// its context is cancelled — it parks a migration in the seeding phase
// so the mid-migration surfaces can be observed deterministically.
type stallMember struct {
	idx, of   int
	started   chan struct{}
	startOnce sync.Once
}

func (m *stallMember) Index() int { return m.idx }
func (m *stallMember) Width() int { return m.of }
func (m *stallMember) RegisterItems(ctx context.Context, items []model.Item) (bool, error) {
	return false, nil
}
func (m *stallMember) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	return core.BatchReport{}, nil
}
func (m *stallMember) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, bool, error) {
	return core.Result{ItemID: v.ID}, false, nil
}
func (m *stallMember) Stats() shard.Stats { return shard.Stats{Shard: m.idx} }
func (m *stallMember) Handoff(ctx context.Context, snapshot []byte) error {
	m.startOnce.Do(func() { close(m.started) })
	<-ctx.Done()
	return ctx.Err()
}

// TestGoldenStatsV2ReshardingMidMigration parks a 2→3 migration in
// seeding and pins the /v2/stats shape mid-migration — the same keys as
// the idle block (only values differ), so dashboards never see the
// schema shift as a migration starts. It also proves the trigger answers
// 409 while one is in flight, then cancels and requires a clean abort.
func TestGoldenStatsV2ReshardingMidMigration(t *testing.T) {
	s, ds := testShardedServer(t, 2)
	s.AdminReshard = true
	r := s.eng.(*shard.Router)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	members := []shard.Shard{
		&stallMember{idx: 0, of: 3, started: make(chan struct{})},
		&stallMember{idx: 1, of: 3, started: make(chan struct{})},
		&stallMember{idx: 2, of: 3, started: make(chan struct{})},
	}
	errCh := make(chan error, 1)
	go func() { errCh <- r.Reshard(ctx, 3, members...) }()
	<-members[0].(*stallMember).started

	h := s.Handler()
	st := reshardStats(t, h)
	if st.Resharding == nil || !st.Resharding.Active || st.Resharding.Phase != shard.ReshardPhaseSeeding {
		t.Fatalf("mid-migration stats %+v, want active seeding", st)
	}
	checkGolden(t, "v2_stats_resharding_mid_migration.golden", statsShape(t, s, itemBody(ds.Items[0])))

	if rr := post(t, h, "/v2/reshard", map[string]any{"shards": 4}); rr.Code != http.StatusConflict {
		t.Fatalf("concurrent trigger status %d, want 409", rr.Code)
	}

	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled migration returned nil error")
	}
	after := reshardStats(t, h)
	if after.Resharding.Active || after.ShardCount != 2 || after.Resharding.Completed != 0 {
		t.Fatalf("post-cancel stats %+v, want untouched 2-shard fleet", after)
	}
}
