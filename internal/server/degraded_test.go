// degraded_test.go pins the degraded-mode wire contract of a sharded
// deployment: /v2/recommend serves the partial ranking BESIDE the typed
// shard_unavailable error (the list is exact for the reachable shards'
// users), and the /v2/observe summary carries the replication failure.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
)

// degradedBackend mimics a Router with an excluded shard.
type degradedBackend struct{}

func (degradedBackend) degraded() error {
	return fmt.Errorf("%w: shard(s) [1] excluded", shard.ErrShardUnavailable)
}

func (d degradedBackend) RecommendBatch(ctx context.Context, items []model.Item, opts ...core.Option) ([]core.Result, error) {
	results := make([]core.Result, len(items))
	for i, v := range items {
		results[i] = core.Result{
			ItemID:          v.ID,
			Recommendations: []model.Recommendation{{UserID: "survivor", Score: -1.5}},
			Err:             d.degraded(),
		}
	}
	return results, nil
}

func (d degradedBackend) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	return core.BatchReport{Applied: len(batch), Flushed: len(batch)}, d.degraded()
}

func (degradedBackend) Users() int                     { return 1 }
func (degradedBackend) IndexView() core.IndexStatsView { return core.IndexStatsView{} }

func TestRecommendV2DegradedPartialResults(t *testing.T) {
	s := New(degradedBackend{})
	rr := post(t, s.Handler(), "/v2/recommend", map[string]any{
		"items": []map[string]any{{"id": "x", "category": "c"}}, "k": 3,
	})
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	resp := decodeV2(t, rr)
	if len(resp.Results) != 1 {
		t.Fatalf("results = %+v", resp.Results)
	}
	res := resp.Results[0]
	if res.Error == nil || res.Error.Code != "shard_unavailable" {
		t.Fatalf("error = %+v, want shard_unavailable", res.Error)
	}
	if len(res.Recommendations) != 1 || res.Recommendations[0].UserID != "survivor" {
		t.Fatalf("partial results dropped from the wire: %+v", res.Recommendations)
	}
}

func TestObserveV2DegradedSummary(t *testing.T) {
	s := New(degradedBackend{})
	s.BatchSize = 2
	line := `{"user_id":"u1","item":{"id":"i1","category":"c"},"timestamp":1}` + "\n"
	rr := postRaw(t, s.Handler(), "/v2/observe", "application/x-ndjson", []byte(strings.Repeat(line, 3)))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var summary observeSummaryJSON
	sc := bufio.NewScanner(rr.Body)
	for sc.Scan() {
		var probe map[string]any
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if probe["status"] == "done" {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
		}
	}
	if summary.Status != "done" {
		t.Fatal("no summary line")
	}
	// The first micro-batch (2 lines) applied on the reachable shards but
	// failed replication: the stream stops, and the summary names why.
	if summary.Applied != 2 {
		t.Fatalf("applied = %d, want 2", summary.Applied)
	}
	if summary.Error == nil || summary.Error.Code != "shard_unavailable" {
		t.Fatalf("summary.Error = %+v, want shard_unavailable", summary.Error)
	}
}
