package core

import (
	"bytes"
	"reflect"
	"testing"
)

// cloneTrained trains one engine and clones it n times through the
// snapshot round-trip, so every arm starts from bit-identical state (the
// same trick the shard conformance suite uses).
func cloneTrained(t *testing.T, n int) (*Engine, []*Engine) {
	t.Helper()
	ds := testDataset(t)
	src := trainedEngine(t, ds, nil)
	var buf bytes.Buffer
	if err := src.SaveTo(&buf); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	arms := make([]*Engine, n)
	for i := range arms {
		e, err := LoadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("LoadFrom: %v", err)
		}
		arms[i] = e
	}
	return src, arms
}

// TestMaskedRefreshMatchesFullEngine is the engine-level exactness pin:
// two arms boot from one snapshot — reference (SetFullRefresh) and masked
// (default) — replay the same interaction stream observation by
// observation (UpdateBatch default: flush per observe), and must answer
// every query bit-identically throughout. Both arms predict through the
// incremental fold; TestPredictionMatchesFullReplay pins the fold itself.
func TestMaskedRefreshMatchesFullEngine(t *testing.T) {
	ds := testDataset(t)
	_, arms := cloneTrained(t, 2)
	ref, masked := arms[0], arms[1]
	ref.SetFullRefresh(true)

	parts := ds.Partition(6)
	stream := parts[2][:min(300, len(parts[2]))]
	stream = append(stream[:len(stream):len(stream)], parts[4][:min(50, len(parts[4]))]...)
	queries := parts[3][:min(40, len(parts[3]))]

	check := func(step int) {
		for _, ir := range queries {
			v, ok := ds.Item(ir.ItemID)
			if !ok {
				continue
			}
			want := ref.Recommend(v, 10)
			if got := masked.Recommend(v, 10); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d item %s: masked diverged\n got %v\nwant %v", step, v.ID, got, want)
			}
		}
	}
	for i, ir := range stream {
		v, ok := ds.Item(ir.ItemID)
		if !ok {
			continue
		}
		ref.Observe(ir, v)
		masked.Observe(ir, v)
		if i%75 == 0 {
			check(i)
		}
	}
	check(len(stream))
	if n := ref.RefreshErrors() + masked.RefreshErrors(); n != 0 {
		t.Fatalf("refresh errors during clean replay: %d", n)
	}
}

// TestRefreshErrorsSurfaced forces the previously-swallowed error path:
// a user is marked dirty, then vanishes from the store before the batched
// flush runs. The flush must count the failure in RefreshErrors, exclude
// the user from the applied count, and keep serving.
func TestRefreshErrorsSurfaced(t *testing.T) {
	ds := testDataset(t)
	eng := trainedEngine(t, ds, func(c *Config) { c.UpdateBatch = 10_000 })
	parts := ds.Partition(6)
	ir := parts[2][0]
	v, ok := ds.Item(ir.ItemID)
	if !ok {
		t.Fatal("query item missing")
	}
	eng.Observe(ir, v) // marks ir.UserID dirty; UpdateBatch keeps it pending
	eng.Store().Remove(ir.UserID)
	if n := eng.FlushUpdates(); n != 0 {
		t.Errorf("flush applied %d users, want 0 (the only dirty user errored)", n)
	}
	if got := eng.RefreshErrors(); got != 1 {
		t.Fatalf("RefreshErrors = %d, want 1", got)
	}
	// Surfaced through the stats view (and hence /v2/stats).
	if got := eng.IndexView().RefreshErrors; got != 1 {
		t.Fatalf("IndexView().RefreshErrors = %d, want 1", got)
	}
	// The engine keeps serving.
	if recs := eng.Recommend(v, 5); recs == nil {
		t.Error("engine stopped serving after refresh error")
	}
	// A healthy dirty user still counts toward the applied figure.
	ir2 := parts[2][1]
	if ir2.UserID == ir.UserID {
		ir2 = parts[2][2]
	}
	if v2, ok := ds.Item(ir2.ItemID); ok {
		eng.Observe(ir2, v2)
		if n := eng.FlushUpdates(); n != 1 {
			t.Errorf("flush applied %d users, want 1", n)
		}
	}
	if got := eng.RefreshErrors(); got != 1 {
		t.Errorf("RefreshErrors = %d after healthy flush, want still 1", got)
	}
}

// TestFullRefreshSetter covers the oracle setter: flipping SetFullRefresh at
// runtime routes flushes through the rebuild-everything path and back.
func TestFullRefreshSetter(t *testing.T) {
	ds := testDataset(t)
	_, arms := cloneTrained(t, 2)
	ref, eng := arms[0], arms[1]
	ref.SetFullRefresh(true)
	parts := ds.Partition(6)

	toggle := true
	for _, ir := range parts[2][:min(120, len(parts[2]))] {
		v, ok := ds.Item(ir.ItemID)
		if !ok {
			continue
		}
		ref.Observe(ir, v)
		eng.SetFullRefresh(toggle)
		toggle = !toggle
		eng.Observe(ir, v)
	}
	for _, ir := range parts[3][:min(30, len(parts[3]))] {
		v, ok := ds.Item(ir.ItemID)
		if !ok {
			continue
		}
		want := ref.Recommend(v, 10)
		if got := eng.Recommend(v, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("item %s: toggled engine diverged\n got %v\nwant %v", v.ID, got, want)
		}
	}
}
