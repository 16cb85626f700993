package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/gob"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"ssrec/internal/dataset"
	"ssrec/internal/model"
)

func TestSaveLoadRoundTripRecommendations(t *testing.T) {
	ds := testDataset(t)
	eng := trainedEngine(t, ds, nil)

	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	loaded, err := LoadFrom(&buf)
	if err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}

	// The restored engine must produce identical recommendations.
	for i := 0; i < 30 && i < len(ds.Items); i++ {
		v := ds.Items[len(ds.Items)-1-i]
		want := eng.Recommend(v, 10)
		got := loaded.Recommend(v, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("item %s:\n got %v\nwant %v", v.ID, got, want)
		}
	}
}

func TestSaveUntrainedFails(t *testing.T) {
	eng := New(Config{Categories: []string{"a"}})
	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err == nil {
		t.Fatal("saved an untrained engine")
	}
}

func TestLoadGarbageFails(t *testing.T) {
	if _, err := LoadFrom(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("loaded garbage")
	}
}

func TestLoadedEngineKeepsLearning(t *testing.T) {
	ds := testDataset(t)
	eng := trainedEngine(t, ds, nil)
	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Stream new interactions into the restored engine.
	parts := ds.Partition(6)
	for _, ir := range parts[3][:min(50, len(parts[3]))] {
		if v, ok := ds.Item(ir.ItemID); ok {
			loaded.Observe(ir, v)
		}
	}
	u := parts[3][0].UserID
	p, ok := loaded.Store().Lookup(u)
	if !ok || p.TotalLen() == 0 {
		t.Fatalf("restored engine did not keep profiles for %s", u)
	}
}

func TestSaveLoadFile(t *testing.T) {
	ds := testDataset(t)
	eng := trainedEngine(t, ds, nil)
	path := t.TempDir() + "/engine.bin"
	if err := eng.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if loaded.Store().Len() != eng.Store().Len() {
		t.Fatalf("profiles %d != %d", loaded.Store().Len(), eng.Store().Len())
	}
}

func TestRebuildIndexPreservesResults(t *testing.T) {
	ds := testDataset(t)
	eng := trainedEngine(t, ds, nil)
	v := ds.Items[len(ds.Items)-1]
	before := eng.Recommend(v, 10)
	if err := eng.RebuildIndex(); err != nil {
		t.Fatalf("RebuildIndex: %v", err)
	}
	after := eng.Recommend(v, 10)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rebuild changed results:\n%v\n%v", before, after)
	}
}

func TestRebuildIndexUntrained(t *testing.T) {
	eng := New(Config{Categories: []string{"a"}})
	if err := eng.RebuildIndex(); err == nil {
		t.Fatal("rebuilt an untrained engine")
	}
}

// TestBatchedUpdatesMatchImmediate: maintenance once per ObserveBatch
// chunk of 25 (the micro-batch is the period) answers exactly as
// maintenance after every Observe.
func TestBatchedUpdatesMatchImmediate(t *testing.T) {
	ds := testDataset(t)
	immediate := trainedEngine(t, ds, nil)
	batched := trainedEngine(t, ds, nil)

	parts := ds.Partition(6)
	feed := parts[2][:min(120, len(parts[2]))]
	var chunk []Observation
	for _, ir := range feed {
		if v, ok := ds.Item(ir.ItemID); ok {
			immediate.Observe(ir, v)
			chunk = append(chunk, Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
		}
		if len(chunk) == 25 {
			if _, err := batched.ObserveBatch(context.Background(), chunk); err != nil {
				t.Fatalf("ObserveBatch: %v", err)
			}
			chunk = chunk[:0]
		}
	}
	if _, err := batched.ObserveBatch(context.Background(), chunk); err != nil {
		t.Fatalf("ObserveBatch: %v", err)
	}
	for i := 0; i < 20 && i < len(ds.Items); i++ {
		v := ds.Items[len(ds.Items)-1-i]
		want := immediate.Recommend(v, 10)
		got := batched.Recommend(v, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("item %s: batched != immediate\n got %v\nwant %v", v.ID, got, want)
		}
	}
}

func TestEngineConcurrentUse(t *testing.T) {
	ds := testDataset(t)
	eng := New(Config{Categories: ds.Categories, TrainMaxIter: 5, Restarts: 1})
	parts := ds.Partition(6)
	var train []model.Interaction
	train = append(train, parts[0]...)
	train = append(train, parts[1]...)
	if err := eng.Train(ds.Items, train, ds.Item); err != nil {
		t.Fatalf("Train: %v", err)
	}
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- true }()
			for i := 0; i < 50; i++ {
				v := ds.Items[(g*50+i)%len(ds.Items)]
				eng.Recommend(v, 5)
				ir := model.Interaction{UserID: "concurrent-user", ItemID: v.ID, Timestamp: v.Timestamp + 1}
				eng.Observe(ir, v)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if eng.Users() == 0 {
		t.Fatal("no users after concurrent feed")
	}
	if s := eng.IndexView(); s.Trees == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if eng.Name() != "ssRec" {
		t.Fatalf("Name = %s", eng.Name())
	}
}

// TestLegacyIncrementalFoldSnapshot pins snapshot compatibility across the
// removal of Config.IncrementalFold: testdata/incremental_fold.snap was
// written while that field still existed, by an engine configured with
// IncrementalFold: true (YTubeConfig(0.15), seed 5, TrainMaxIter 4,
// Restarts 1, UpdateBatch 8, trained on partitions 0–1), and
// incremental_fold.answers.json holds what that engine answered for the
// first 25 interactions' items of partition 3 (k=5) after ingesting
// partition 2. Gob skips the fields the current Config lacks
// (IncrementalFold, UpdateBatch), so the snapshot must load and serve the
// same answers bit for bit, maintaining after every observation.
func TestLegacyIncrementalFoldSnapshot(t *testing.T) {
	const snapPath = "testdata/incremental_fold.snap"
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var legacy struct {
		Config struct {
			IncrementalFold bool
			UpdateBatch     int
		}
	}
	err = gob.NewDecoder(gz).Decode(&legacy)
	f.Close()
	if err != nil {
		t.Fatalf("decode legacy config: %v", err)
	}
	if !legacy.Config.IncrementalFold || legacy.Config.UpdateBatch != 8 {
		t.Fatalf("fixture config %+v, want IncrementalFold true and UpdateBatch 8", legacy.Config)
	}

	eng, err := LoadFile(snapPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	raw, err := os.ReadFile("testdata/incremental_fold.answers.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []struct {
		Item string `json:"item"`
		Recs []struct {
			User  string  `json:"user"`
			Score float64 `json:"score"`
		} `json:"recs"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	cfg := dataset.YTubeConfig(0.15)
	cfg.Seed = 5
	ds := dataset.Generate(cfg)
	parts := ds.Partition(6)
	for _, ir := range parts[2] {
		if v, ok := ds.Item(ir.ItemID); ok {
			eng.Observe(ir, v)
		}
	}
	if len(want) == 0 {
		t.Fatal("no recorded answers")
	}
	for _, w := range want {
		v, ok := ds.Item(w.Item)
		if !ok {
			t.Fatalf("item %s missing from the regenerated dataset", w.Item)
		}
		got := eng.Recommend(v, 5)
		if len(got) != len(w.Recs) {
			t.Fatalf("item %s: %d answers, recorded %d", w.Item, len(got), len(w.Recs))
		}
		for i, r := range w.Recs {
			if got[i].UserID != r.User || math.Float64bits(got[i].Score) != math.Float64bits(r.Score) {
				t.Fatalf("item %s rank %d: got %s %v, recorded %s %v", w.Item, i, got[i].UserID, got[i].Score, r.User, r.Score)
			}
		}
	}
}
