// sharded_test.go proves the HTTP layer is deployment-agnostic: a server
// over a shard.Router speaks byte-identical v2 protocol to a server over
// the single engine it was sharded from, and /v2/stats grows the per-shard
// section.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/dataset"
	"ssrec/internal/evalx"
	"ssrec/internal/shard"
)

// testShardedServer trains the same corpus as testServer, then boots an
// n-shard deployment from the trained engine's snapshot.
func testShardedServer(t *testing.T, n int) (*Server, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.YTubeConfig(0.2)
	cfg.Seed = 31
	ds := dataset.Generate(cfg)
	eng := core.New(core.Config{Categories: ds.Categories, TrainMaxIter: 5, Restarts: 1})
	if err := evalx.Train(eng, ds, evalx.Setup{}); err != nil {
		t.Fatalf("train: %v", err)
	}
	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	r, err := shard.FromSnapshot(buf.Bytes(), n)
	if err != nil {
		t.Fatalf("boot router: %v", err)
	}
	return New(r), ds
}

// testReplicatedServer boots the same corpus as an n-slot deployment with
// rep replicas per slot and a running reseed supervisor — the replica
// topology the /v2/stats replica_sets and supervisor blocks describe.
func testReplicatedServer(t *testing.T, n, rep int) (*Server, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.YTubeConfig(0.2)
	cfg.Seed = 31
	ds := dataset.Generate(cfg)
	eng := core.New(core.Config{Categories: ds.Categories, TrainMaxIter: 5, Restarts: 1})
	if err := evalx.Train(eng, ds, evalx.Setup{}); err != nil {
		t.Fatalf("train: %v", err)
	}
	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	r, err := shard.FromSnapshotReplicated(buf.Bytes(), n, rep)
	if err != nil {
		t.Fatalf("boot replicated router: %v", err)
	}
	sup := r.StartSupervisor(time.Hour) // present in stats; sweeps never fire mid-test
	t.Cleanup(sup.Stop)
	return New(r), ds
}

// TestStatsV2ReplicaHealth: a replicated deployment surfaces per-slot
// replica states and the supervisor counters in /v2/stats.
func TestStatsV2ReplicaHealth(t *testing.T) {
	s, _ := testReplicatedServer(t, 2, 2)
	rr := get(t, s.Handler(), "/v2/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats status %d", rr.Code)
	}
	var resp struct {
		ReplicaSets []struct {
			Slot     int `json:"slot"`
			Replicas []struct {
				Replica     int    `json:"replica"`
				State       string `json:"state"`
				MissedWrite bool   `json:"missed_write"`
			} `json:"replicas"`
		} `json:"replica_sets"`
		Supervisor *struct {
			Running    bool    `json:"running"`
			IntervalMs float64 `json:"interval_ms"`
		} `json:"supervisor"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if len(resp.ReplicaSets) != 2 {
		t.Fatalf("replica_sets slots = %d, want 2", len(resp.ReplicaSets))
	}
	for _, slot := range resp.ReplicaSets {
		if len(slot.Replicas) != 2 {
			t.Fatalf("slot %d replicas = %d, want 2", slot.Slot, len(slot.Replicas))
		}
		for _, rep := range slot.Replicas {
			if rep.State != "healthy" || rep.MissedWrite {
				t.Errorf("slot %d replica %d: state=%q missed_write=%v, want healthy/false",
					slot.Slot, rep.Replica, rep.State, rep.MissedWrite)
			}
		}
	}
	if resp.Supervisor == nil || !resp.Supervisor.Running {
		t.Fatalf("supervisor block missing or not running: %+v", resp.Supervisor)
	}
}

// TestShardedServerWireEquivalence: the same /v2/recommend request returns
// byte-identical bodies from the single-engine server and the sharded one.
func TestShardedServerWireEquivalence(t *testing.T) {
	single, ds := testServer(t)
	sharded, _ := testShardedServer(t, 3)
	for i := 0; i < 4; i++ {
		body := map[string]any{
			"items": []map[string]any{
				itemBody(ds.Items[i]),
				{"id": "alien", "category": "no-such-category", "producer": "p"},
			},
			"k": 6,
		}
		a := post(t, single.Handler(), "/v2/recommend", body)
		b := post(t, sharded.Handler(), "/v2/recommend", body)
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("status %d / %d", a.Code, b.Code)
		}
		if a.Body.String() != b.Body.String() {
			t.Fatalf("wire divergence on item %d:\nsingle  %s\nsharded %s", i, a.Body.String(), b.Body.String())
		}
	}
}

// TestShardedServerObserveIngest: NDJSON bulk ingest lands on every shard
// (replicated profiles) and reports single-engine-equivalent counters.
func TestShardedServerObserveIngest(t *testing.T) {
	sharded, ds := testShardedServer(t, 3)
	before := sharded.eng.Users()
	var lines []string
	for i := 0; i < 6; i++ {
		lines = append(lines, observeLine(fmt.Sprintf("sharded-user-%d", i), ds.Items[i], int64(i)))
	}
	rr := postRaw(t, sharded.Handler(), "/v2/observe", "application/x-ndjson",
		[]byte(strings.Join(lines, "\n")))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	out := ndjsonLines(t, rr.Body.String())
	sum := out[len(out)-1]
	if sum["status"] != "done" || int(sum["applied"].(float64)) != 6 {
		t.Fatalf("summary = %v", sum)
	}
	if after := sharded.eng.Users(); after != before+6 {
		t.Fatalf("users %d -> %d, want +6", before, after)
	}
}

// TestShardedStatsV2 exercises the per-shard stats section.
func TestShardedStatsV2(t *testing.T) {
	sharded, _ := testShardedServer(t, 3)
	rr := get(t, sharded.Handler(), "/v2/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var resp statsV2Response
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ShardCount != 3 || len(resp.Shards) != 3 {
		t.Fatalf("shard section missing: %+v", resp)
	}
	owned := 0
	for i, sh := range resp.Shards {
		if sh.Shard != i || !sh.Trained {
			t.Errorf("shard %d malformed: %+v", i, sh)
		}
		if sh.Users != resp.Users {
			t.Errorf("shard %d users %d != deployment %d", i, sh.Users, resp.Users)
		}
		owned += sh.OwnedUsers
	}
	if owned != resp.Users {
		t.Errorf("owned sums to %d, want %d", owned, resp.Users)
	}
	// Single-engine stats must NOT carry the shard section.
	single, _ := testServer(t)
	rr2 := get(t, single.Handler(), "/v2/stats")
	var raw map[string]any
	if err := json.Unmarshal(rr2.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["shards"]; ok {
		t.Error("single-engine /v2/stats leaked a shards section")
	}
}
