// golden_test.go pins the wire format against drift: the /v2/stats
// response shape (single-engine and sharded) is compared against golden
// files in testdata/. A renamed JSON field or an accidentally-added key
// fails CI.
//
// Regenerate after an INTENTIONAL wire change with
//
//	go test ./internal/server -run Golden -update
package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/wal"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// canonicalize replaces every scalar with a type placeholder so the golden
// captures the SHAPE of the payload (keys, nesting, arity) rather than
// run-dependent values.
func canonicalize(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, val := range x {
			out[k] = canonicalize(val)
		}
		return out
	case []any:
		out := make([]any, len(x))
		for i := range x {
			out[i] = canonicalize(x[i])
		}
		return out
	case float64:
		return "<number>"
	case string:
		return "<string>"
	case bool:
		return "<bool>"
	case nil:
		return "<null>"
	default:
		return fmt.Sprintf("<%T>", v)
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if string(want) != string(got) {
		t.Errorf("wire format drifted from %s.\n--- got ---\n%s\n--- want ---\n%s\nIf intentional, regenerate with: go test ./internal/server -run Golden -update",
			path, got, want)
	}
}

// statsShape fetches /v2/stats after one deterministic recommend call and
// canonicalizes the response shape.
func statsShape(t *testing.T, s *Server, item map[string]any) []byte {
	t.Helper()
	h := s.Handler()
	post(t, h, "/v2/recommend", map[string]any{"items": []map[string]any{item}, "k": 3})
	rr := get(t, h, "/v2/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats status %d", rr.Code)
	}
	var payload any
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	out, err := json.MarshalIndent(canonicalize(payload), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func TestGoldenStatsV2Shape(t *testing.T) {
	s, ds := testServer(t)
	checkGolden(t, "v2_stats_shape.golden", statsShape(t, s, itemBody(ds.Items[0])))
}

func TestGoldenStatsV2ShardedShape(t *testing.T) {
	s, ds := testShardedServer(t, 2)
	checkGolden(t, "v2_stats_sharded_shape.golden", statsShape(t, s, itemBody(ds.Items[0])))
}

var (
	walDirRe = regexp.MustCompile(`"dir":"[^"]*"`)
	walAgeRe = regexp.MustCompile(`"checkpoint_age_ms":[-+.0-9eE]+`)
)

// TestGoldenStatsV2WALBlock pins the wal block of a single-engine
// /v2/stats served with a durable log: key order and every counter, with
// the directory and checkpoint age canonicalized. The shard RPC pins the
// same block of /shard/v1/stats (internal/shardrpc).
func TestGoldenStatsV2WALBlock(t *testing.T) {
	s, ds := testServer(t)
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.PolicyBatch})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	defer l.Close()
	d := wal.NewDurable(l, s.eng.(*core.Engine))
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("boot checkpoint: %v", err)
	}
	h := New(d).Handler()

	cold := model.Item{ID: "golden-wal-cold", Category: ds.Categories[0], Producer: "up0000", Entities: []string{"c00e001"}}
	post(t, h, "/v2/recommend", map[string]any{"items": []map[string]any{itemBody(cold)}, "k": 3})
	line, _ := json.Marshal(map[string]any{"user_id": "uc00001", "item": itemBody(cold), "timestamp": 1700000000})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v2/observe", bytes.NewReader(append(line, '\n'))))

	rr := get(t, h, "/v2/stats")
	var v struct {
		WAL json.RawMessage `json:"wal"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil || v.WAL == nil {
		t.Fatalf("no wal block in %s (%v)", rr.Body, err)
	}
	block := walDirRe.ReplaceAll(v.WAL, []byte(`"dir":"<dir>"`))
	block = walAgeRe.ReplaceAll(block, []byte(`"checkpoint_age_ms":"<ms>"`))
	var out bytes.Buffer
	if err := json.Indent(&out, block, "", "  "); err != nil {
		t.Fatal(err)
	}
	out.WriteByte('\n')
	checkGolden(t, "v2_stats_wal_block.golden", out.Bytes())
}

func TestGoldenStatsV2ReplicatedShape(t *testing.T) {
	s, ds := testReplicatedServer(t, 2, 2)
	checkGolden(t, "v2_stats_replicated_shape.golden", statsShape(t, s, itemBody(ds.Items[0])))
}
