package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"ssrec/internal/model"
	"ssrec/internal/sigtree"
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
// two arms boot from one snapshot — reference (SetFullRefresh) and
// roll-gated (default) — replay the same interaction stream observation by
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

// sameIndex fails unless a and b hold the same index: the same State
// (blocks, assignments, universe orders), the same statistics and every
// tree identical node by node (sigtree.Diff, slab packing included).
func sameIndex(t *testing.T, step string, a, b *Engine) {
	t.Helper()
	sa, sb := a.index.State(), b.index.State()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: index State diverged", step)
	}
	if a.index.Stats() != b.index.Stats() {
		t.Fatalf("%s: index stats %+v, other %+v", step, a.index.Stats(), b.index.Stats())
	}
	for block, cats := range sa.EntUni {
		for cat := range cats {
			if err := sigtree.Diff(a.index.Tree(block, cat), b.index.Tree(block, cat)); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
	}
}

// TestRollGatedRefreshMatchesFullIndex holds the roll-gated refresh to the
// rebuild-everything oracle (SetFullRefresh) tree by tree after every
// flush, at UpdateBatch 1 and 64, on an unsharded engine and on one shard
// of two. The stream covers window rolls, a user removed from the index
// and then observed again, a brand-new user, and two users of one block
// observed under a category outside Config.Categories, carried across a
// save and load (the load builds no tree for that category) into refreshes
// that do not roll.
func TestRollGatedRefreshMatchesFullIndex(t *testing.T) {
	ds := testDataset(t)
	src := trainedEngine(t, ds, nil)
	var snap bytes.Buffer
	if err := src.SaveTo(&snap); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	parts := ds.Partition(6)
	stream := parts[2][:min(250, len(parts[2]))]
	extra := parts[3]

	// Two users of one block take the unconfigured-category observations.
	var pair []string
	for _, a := range src.store.UserIDs() {
		ba, _ := src.index.BlockOf(a)
		for _, b := range src.store.UserIDs() {
			if bb, _ := src.index.BlockOf(b); a < b && ba == bb {
				pair = []string{a, b}
				break
			}
		}
		if pair != nil {
			break
		}
	}
	if pair == nil {
		t.Fatal("no block holds two users")
	}

	for _, batch := range []int{1, 64} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("batch=%d/shards=%d", batch, shards), func(t *testing.T) {
				load := func(r io.Reader) *Engine {
					var e *Engine
					var err error
					if shards == 1 {
						e, err = LoadFrom(r)
					} else {
						e, err = LoadShardFrom(r, 0, shards)
					}
					if err != nil {
						t.Fatalf("load: %v", err)
					}
					e.cfg.UpdateBatch = batch
					return e
				}
				ref, gated := load(bytes.NewReader(snap.Bytes())), load(bytes.NewReader(snap.Bytes()))
				ref.SetFullRefresh(true)
				step := 0
				observe := func(ir model.Interaction, v model.Item) {
					t.Helper()
					ref.Observe(ir, v)
					gated.Observe(ir, v)
					step++
					if len(ref.dirty) != len(gated.dirty) {
						t.Fatalf("step %d: %d dirty users, other %d", step, len(ref.dirty), len(gated.dirty))
					}
					if len(ref.dirty) == 0 {
						sameIndex(t, fmt.Sprintf("step %d", step), ref, gated)
					}
				}
				flush := func() {
					t.Helper()
					ref.FlushUpdates()
					gated.FlushUpdates()
					sameIndex(t, fmt.Sprintf("flush at step %d", step), ref, gated)
				}
				item := func(ir model.Interaction) model.Item {
					v, ok := ds.Item(ir.ItemID)
					if !ok {
						t.Fatalf("item %s missing", ir.ItemID)
					}
					return v
				}

				for _, ir := range stream {
					observe(ir, item(ir))
				}

				// Remove a user from both indexes, then observe it again.
				gone := stream[0].UserID
				flush()
				ref.index.RemoveUser(gone)
				gated.index.RemoveUser(gone)
				for _, ir := range extra[:12] {
					ir.UserID = gone
					observe(ir, item(ir))
				}

				// A brand-new user.
				for _, ir := range extra[12:24] {
					ir.UserID = "brand-new-user"
					observe(ir, item(ir))
				}
				flush()

				// Unconfigured categories: each user of the pair observes
				// esports items until a roll has moved some into long-term
				// state and its window has room again; the engines then go
				// through a save and load and each user takes one more
				// observation, which does not roll.
				for i, id := range pair {
					p, _ := gated.store.Lookup(id)
					for j := 0; p.CategoryCount("esports") == 0 || p.WindowLen() >= p.WindowSize(); j++ {
						v := item(extra[24+j%8])
						v.ID = fmt.Sprintf("esports-%d-%d", i, j)
						v.Category = "esports"
						v.Entities = []string{fmt.Sprintf("speedrun-%d-%d", i, j%3), "finals"}
						observe(model.Interaction{UserID: id, ItemID: v.ID, Timestamp: v.Timestamp}, v)
					}
				}
				flush()
				reload := func(e *Engine) *Engine {
					var buf bytes.Buffer
					if err := e.SaveTo(&buf); err != nil {
						t.Fatalf("SaveTo: %v", err)
					}
					fr := e.fullRefresh
					e = load(&buf)
					e.SetFullRefresh(fr)
					return e
				}
				ref, gated = reload(ref), reload(gated)
				sameIndex(t, "after reload", ref, gated)
				for _, id := range pair {
					if p, _ := gated.store.Lookup(id); p.WindowLen() >= p.WindowSize() {
						t.Fatalf("user %s: the next observation would roll", id)
					}
					ir := extra[40]
					ir.UserID = id
					observe(ir, item(ir))
				}
				flush()
				for _, ir := range extra[41:120] {
					observe(ir, item(ir))
				}
				flush()
				if n := ref.RefreshErrors() + gated.RefreshErrors(); n != 0 {
					t.Fatalf("refresh errors: %d", n)
				}
			})
		}
	}
}
