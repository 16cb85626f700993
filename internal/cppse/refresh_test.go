package cppse

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ssrec/internal/model"
	"ssrec/internal/profile"
	"ssrec/internal/ranking"
	"ssrec/internal/sigtree"
)

// mixedEvent cycles a user through all three fixture categories with
// rotating producers/entities — the stream shape that exercises masks.
func mixedEvent(i int) profile.Event {
	cats := []string{"sports", "music", "news"}
	cat := cats[i%3]
	return profile.Event{
		Category: cat,
		Producer: fmt.Sprintf("%s-up%d", cat, i%3),
		Entities: []string{fmt.Sprintf("%s-e%d", cat, i%8)},
	}
}

// sigsEquivalent compares two leaf signatures: Pl/Ps/totals and every
// listed count. Leaves list only their positive counts, so equal lists
// are equal signatures at every universe coordinate.
func sigsEquivalent(a, b sigtree.Signature) bool {
	if a.Pl != b.Pl || a.Ps != b.Ps || a.ProdTotal != b.ProdTotal || a.EntTotal != b.EntTotal {
		return false
	}
	return slices.Equal(a.Prod, b.Prod) && slices.Equal(a.Ent, b.Ent)
}

// compareIndexes asserts that the masked and full indexes hold equivalent
// leaves for every user in store and answer queries bit-identically.
func compareIndexes(t *testing.T, full, masked *Index, store *profile.Store) {
	t.Helper()
	for _, id := range store.UserIDs() {
		p, _ := store.Lookup(id)
		bf, okF := full.BlockOf(id)
		bm, okM := masked.BlockOf(id)
		if okF != okM || bf != bm {
			t.Fatalf("user %s: block (%d,%v) vs (%d,%v)", id, bf, okF, bm, okM)
		}
		if !okF {
			continue
		}
		cats := append(p.Categories(), p.WindowCategories()...)
		for _, cat := range cats {
			trF, trM := full.Tree(bf, cat), masked.Tree(bm, cat)
			if (trF == nil) != (trM == nil) {
				t.Fatalf("user %s cat %s: tree presence differs", id, cat)
			}
			if trF == nil {
				continue
			}
			sf, okF := trF.Get(id)
			sm, okM := trM.Get(id)
			if okF != okM {
				t.Fatalf("user %s cat %s: leaf presence %v vs %v", id, cat, okF, okM)
			}
			if okF && !sigsEquivalent(sf, sm) {
				t.Fatalf("user %s cat %s: leaf diverged\n full: %+v\nmask: %+v", id, cat, sf, sm)
			}
		}
	}
	for trial := 0; trial < 6; trial++ {
		q := ranking.BuildQuery(sportsItem(trial), nil)
		rf, _ := full.Recommend(q, store.Len())
		rm, _ := masked.Recommend(q, store.Len())
		if !reflect.DeepEqual(rf, rm) {
			t.Fatalf("trial %d: results diverged\n full: %v\nmask: %v", trial, rf, rm)
		}
	}
}

// TestUpdateUserCatsMatchesFull pins the tentpole's exactness claim at the
// index level: a masked refresh driven by per-observation dirty categories
// (with the window-roll sentinel) leaves the index equivalent to the
// rebuild-everything path after EVERY step — including window rolls,
// universe growth by other users, and remove-then-reobserve.
func TestUpdateUserCatsMatchesFull(t *testing.T) {
	store, bg, cats := fixture(t, 8)
	probs := MLEProbs{Store: store, NCats: len(cats)}
	cfg := Config{Categories: cats}
	full, err := Build(store, bg, probs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	masked, err := Build(store, bg, probs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	users := []string{"mixed000", "sports001", "music002"}
	for i := 0; i < 40; i++ {
		id := users[i%len(users)]
		p, _ := store.Lookup(id)
		ev := mixedEvent(i)
		rolled := p.Observe(ev) // window size 5: rolls regularly
		if err := full.UpdateUser(id); err != nil {
			t.Fatal(err)
		}
		if err := masked.UpdateUserCats(id, []string{ev.Category}, rolled); err != nil {
			t.Fatal(err)
		}
		compareIndexes(t, full, masked, store)
	}

	// Removed-then-reobserved: the masked path must re-insert the user into
	// EVERY inhabited tree (leaf absence forces a rebuild regardless of the
	// mask), not just the observed category's.
	full.RemoveUser("mixed000")
	masked.RemoveUser("mixed000")
	p, _ := store.Lookup("mixed000")
	ev := mixedEvent(1)
	rolled := p.Observe(ev)
	if err := full.UpdateUser("mixed000"); err != nil {
		t.Fatal(err)
	}
	if err := masked.UpdateUserCats("mixed000", []string{ev.Category}, rolled); err != nil {
		t.Fatal(err)
	}
	compareIndexes(t, full, masked, store)
}

// TestRemoveUserUnconfiguredCategory is the leak regression: a user
// observed under a category outside Config.Categories gets a tree via
// UpdateUser (profile-driven), and RemoveUser must find and delete that
// leaf even though the configured category list never mentions it.
func TestRemoveUserUnconfiguredCategory(t *testing.T) {
	ix, store, _ := buildIndex(t, 5, Config{})
	p, _ := store.Lookup("sports000")
	p.ObserveLongTerm(profile.Event{Category: "esports", Producer: "twitch-up0",
		Entities: []string{"speedrun"}})
	if err := ix.UpdateUser("sports000"); err != nil {
		t.Fatal(err)
	}
	block, _ := ix.BlockOf("sports000")
	tr := ix.Tree(block, "esports")
	if tr == nil || !tr.Has("sports000") {
		t.Fatal("unconfigured-category tree missing before removal")
	}
	if !ix.RemoveUser("sports000") {
		t.Fatal("RemoveUser returned false")
	}
	if tr.Has("sports000") {
		t.Fatal("leaf leaked in unconfigured-category tree after RemoveUser")
	}
	// The leaked leaf was also reachable by queries before the fix.
	v := model.Item{ID: "q", Category: "esports", Producer: "twitch-up0",
		Entities: []string{"speedrun"}}
	recs, _ := ix.Recommend(ranking.BuildQuery(v, nil), 5)
	for _, r := range recs {
		if r.UserID == "sports000" {
			t.Fatal("removed user still recommended via unconfigured category")
		}
	}
}

// TestRefreshAllocs is the allocation regression guard of the refresh
// loop: a steady-state masked refresh (warm scratch pool, warm tree
// buffers, no universe growth) must run allocation-free, and even the
// rebuild-everything path must stay within a small ceiling (the leaf
// Insert path is excluded — the user already has leaves).
func TestRefreshAllocs(t *testing.T) {
	ix, store, _ := buildIndex(t, 50, Config{})
	p, _ := store.Lookup("sports000")
	i := 0
	// Warm up: grow scratch buffers, tree aggregate buffers and universes.
	for ; i < 12; i++ {
		p.Observe(profile.Event{Category: "sports", Producer: "sports-up0",
			Entities: []string{fmt.Sprintf("sports-e%d", i%6)}})
		if err := ix.UpdateUserCats("sports000", []string{"sports"}, false); err != nil {
			t.Fatal(err)
		}
	}
	// Measure the refresh alone (it is idempotent): event construction and
	// Profile.Observe have their own costs that are not the refresh loop's.
	dirty := []string{"sports"}
	masked := testing.AllocsPerRun(50, func() {
		if err := ix.UpdateUserCats("sports000", dirty, false); err != nil {
			t.Fatal(err)
		}
	})
	fullPath := testing.AllocsPerRun(50, func() {
		if err := ix.UpdateUser("sports000"); err != nil {
			t.Fatal(err)
		}
	})
	if raceEnabled {
		return // race-mode sync.Pool drops pooled scratch: the counts mean nothing
	}
	if masked > 0 {
		t.Errorf("masked refresh allocates %.1f allocs/op, want 0", masked)
	}
	if fullPath > 0 {
		t.Errorf("full refresh allocates %.1f allocs/op, want 0 (scratch-pooled)", fullPath)
	}
}

// ---- refresh micro-benchmark family ----

// benchProfile adds nCats categories of long-term history to a fresh user
// so the refresh cost scales with the inhabited-category count.
func benchObserveCats(p *profile.Profile, nEvents int) {
	for i := 0; i < nEvents; i++ {
		p.ObserveLongTerm(mixedEvent(i))
	}
}

// BenchmarkRefreshColdUser measures the first refresh of a brand-new user
// (block assignment + tree inserts) — the cost masks cannot avoid.
func BenchmarkRefreshColdUser(b *testing.B) {
	ix, store, _ := buildIndex(b, 100, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("cold%06d", i)
		p := store.Get(id)
		benchObserveCats(p, 6)
		if err := ix.UpdateUserCats(id, nil, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefreshOneDirtyOfN is the heavy-tailed steady state the masks
// target: a user inhabiting all three fixture categories takes one event
// in ONE of them. masked rebuilds one leaf and restamps two; full rebuilds
// all three.
func BenchmarkRefreshOneDirtyOfN(b *testing.B) {
	run := func(b *testing.B, masked bool) {
		ix, store, _ := buildIndex(b, 100, Config{})
		id := "mixed000"
		p, _ := store.Lookup(id)
		benchObserveCats(p, 30) // inhabit all three categories
		if err := ix.UpdateUserCats(id, nil, true); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rolled := p.Observe(profile.Event{Category: "sports", Producer: "sports-up0",
				Entities: []string{fmt.Sprintf("sports-e%d", i%6)}})
			var err error
			if masked {
				err = ix.UpdateUserCats(id, []string{"sports"}, rolled)
			} else {
				err = ix.UpdateUserCats(id, nil, true)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("masked", func(b *testing.B) { run(b, true) })
	b.Run("full", func(b *testing.B) { run(b, false) })
}

// BenchmarkRefreshWindowRoll measures the all-dirty sentinel path: every
// iteration rolls the window (size 5 fixture store), forcing a full
// rebuild even under masks — the upper bound of the masked path.
func BenchmarkRefreshWindowRoll(b *testing.B) {
	ix, store, _ := buildIndex(b, 100, Config{})
	id := "mixed000"
	p, _ := store.Lookup(id)
	benchObserveCats(p, 30)
	if err := ix.UpdateUserCats(id, nil, true); err != nil {
		b.Fatal(err)
	}
	// Fill the window so every subsequent Observe rolls it.
	for i := 0; i < p.WindowSize(); i++ {
		p.Observe(mixedEvent(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < p.WindowSize(); j++ {
			rolled := p.Observe(mixedEvent(i + j))
			if err := ix.UpdateUserCats(id, []string{"sports"}, rolled); err != nil {
				b.Fatal(err)
			}
		}
	}
}
