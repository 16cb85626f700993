package cppse

import (
	"runtime"
	"testing"

	"ssrec/internal/model"
	"ssrec/internal/sigtree"
)

// TestParallelBuildMatchesSerial builds one store with one worker
// (GOMAXPROCS 1) and with four, through Build and through BuildFromState
// of the serial build's State, unsharded and as one shard of two, and
// holds every tree of each parallel build to its serial twin node by node
// (sigtree.Diff): shape, entry order, every aggregate, vector and cached
// logarithm bit for bit, and slab packing. Run under -race it also shows
// that the parallel phase only reads what its workers share.
func TestParallelBuildMatchesSerial(t *testing.T) {
	store, bg, cats := wideFixture(600)
	probs := MLEProbs{Store: store}
	for _, shard := range []bool{false, true} {
		cfg := Config{Categories: cats}
		if shard {
			cfg.Owns = func(u string) bool { return model.ShardOf(u, 2) == 0 }
		}
		build := func(procs int, st *State) *Index {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var ix *Index
			var err error
			if st == nil {
				ix, err = Build(store, bg, probs, cfg)
			} else {
				ix, err = BuildFromState(store, bg, probs, cfg, *st)
			}
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			return ix
		}
		serial := build(1, nil)
		st := serial.State()
		sameTrees(t, "Build", serial, build(4, nil))
		sameTrees(t, "BuildFromState", build(1, &st), build(4, &st))
		if n := len(serial.allTrees()); n < 8 {
			t.Fatalf("fixture builds %d trees; the parallel phase needs several", n)
		}
	}
}

// sameTrees fails unless b holds the trees of a, registered in the same
// order and identical node by node.
func sameTrees(t *testing.T, how string, a, b *Index) {
	t.Helper()
	ta, tb := a.allTrees(), b.allTrees()
	if len(ta) != len(tb) {
		t.Fatalf("%s: %d trees, parallel %d", how, len(ta), len(tb))
	}
	for _, tr := range ta {
		other := b.Tree(tr.BlockID, tr.Category)
		if other == nil {
			t.Fatalf("%s: parallel build lacks tree %d/%s", how, tr.BlockID, tr.Category)
		}
		if err := sigtree.Diff(tr, other); err != nil {
			t.Fatalf("%s: %v", how, err)
		}
	}
	for id, ts := range a.treesByCat {
		cat := a.names.Cats.Name(int32(id))
		var others []*sigtree.Tree
		if oid, ok := b.names.Cats.Lookup(cat); ok && int(oid) < len(b.treesByCat) {
			others = b.treesByCat[oid]
		}
		if len(ts) != len(others) {
			t.Fatalf("%s: category %s has %d trees, parallel %d", how, cat, len(ts), len(others))
		}
		for i, tr := range ts {
			if other := others[i]; other.BlockID != tr.BlockID {
				t.Fatalf("%s: category %s tree %d is block %d, parallel block %d", how, cat, i, tr.BlockID, other.BlockID)
			}
		}
	}
	if a.hash.Stats() != b.hash.Stats() {
		t.Fatalf("%s: hash table %+v, parallel %+v", how, a.hash.Stats(), b.hash.Stats())
	}
}
