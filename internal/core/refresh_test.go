package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"reflect"
	"strings"
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
// observation (Observe flushes per call), and must answer
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

// TestRefreshErrorsSurfaced forces the refresh-error path from inside
// the package: a user missing from the store is marked dirty and the dirty
// set is flushed under the write lock, as a write call ends. The flush
// must count the failure in RefreshErrors, exclude the user from the
// applied count, log the first failure and keep serving.
func TestRefreshErrorsSurfaced(t *testing.T) {
	ds := testDataset(t)
	eng := trainedEngine(t, ds, nil)
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	flushMissing := func(id string) int {
		eng.mu.Lock()
		defer eng.mu.Unlock()
		eng.dirty[id] = true
		return eng.flushUpdatesLocked()
	}
	if n := flushMissing("missing-user"); n != 0 {
		t.Errorf("flush applied %d users, want 0 (the only dirty user errored)", n)
	}
	if got := eng.RefreshErrors(); got != 1 {
		t.Fatalf("RefreshErrors = %d, want 1", got)
	}
	if !strings.Contains(logged.String(), `index refresh failed for user "missing-user"`) {
		t.Errorf("first refresh failure not logged: %q", logged.String())
	}
	// Surfaced through the stats view (and hence /v2/stats).
	if got := eng.IndexView().RefreshErrors; got != 1 {
		t.Fatalf("IndexView().RefreshErrors = %d, want 1", got)
	}
	// The engine keeps serving, and a healthy user still counts toward
	// the applied figure.
	ir := ds.Partition(6)[2][0]
	v, ok := ds.Item(ir.ItemID)
	if !ok {
		t.Fatal("query item missing")
	}
	if recs := eng.Recommend(v, 5); recs == nil {
		t.Error("engine stopped serving after refresh error")
	}
	rep, err := eng.ObserveBatch(context.Background(), []Observation{{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp}})
	if err != nil {
		t.Fatalf("ObserveBatch: %v", err)
	}
	if rep.Flushed != 1 {
		t.Errorf("flush applied %d users, want 1", rep.Flushed)
	}
	if got := eng.RefreshErrors(); got != 1 {
		t.Errorf("RefreshErrors = %d after healthy flush, want still 1", got)
	}
	if n := flushMissing("missing-user-2"); n != 0 || eng.RefreshErrors() != 2 {
		t.Errorf("second failure: applied %d, RefreshErrors %d; want 0 and 2", n, eng.RefreshErrors())
	}
	if c := strings.Count(logged.String(), "index refresh failed"); c != 1 {
		t.Errorf("%d refresh failures logged, want only the first", c)
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
// flush, at ObserveBatch chunks of 1 and 64, on an unsharded engine and
// on one shard of two. The stream covers window rolls, a user removed
// from the index and then observed again, a brand-new user, and two users
// of one block observed under a category outside Config.Categories,
// carried across a save and load (the load builds no tree for that
// category) into refreshes that do not roll.
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
					return e
				}
				ref, gated := load(bytes.NewReader(snap.Bytes())), load(bytes.NewReader(snap.Bytes()))
				ref.SetFullRefresh(true)
				step := 0
				var chunk []Observation
				// flush ingests the pending chunk through both engines.
				flush := func() {
					t.Helper()
					for _, e := range []*Engine{ref, gated} {
						if _, err := e.ObserveBatch(context.Background(), chunk); err != nil {
							t.Fatalf("ObserveBatch: %v", err)
						}
					}
					chunk = chunk[:0]
					sameIndex(t, fmt.Sprintf("flush at step %d", step), ref, gated)
				}
				observe := func(ir model.Interaction, v model.Item) {
					t.Helper()
					chunk = append(chunk, Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
					step++
					if len(chunk) == batch {
						flush()
					}
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
