package cppse

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ssrec/internal/model"
	"ssrec/internal/profile"
	"ssrec/internal/ranking"
	"ssrec/internal/sigtree"
)

// mixedEvent cycles a user through all three fixture categories with
// rotating producers/entities — a stream that crosses categories.
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

// compareIndexes asserts that the gated and full indexes hold the same
// State, the same trees node by node (sigtree.Diff) and equivalent leaves
// for every user in store, and answer queries bit-identically.
func compareIndexes(t *testing.T, full, gated *Index, store *profile.Store) {
	t.Helper()
	if !reflect.DeepEqual(full.State(), gated.State()) {
		t.Fatal("index State diverged")
	}
	sameTrees(t, "refresh", full, gated)
	for _, id := range store.UserIDs() {
		p, _ := store.Lookup(id)
		bf, okF := full.BlockOf(id)
		bm, okM := gated.BlockOf(id)
		if okF != okM || bf != bm {
			t.Fatalf("user %s: block (%d,%v) vs (%d,%v)", id, bf, okF, bm, okM)
		}
		if !okF {
			continue
		}
		cats := append(p.Categories(), p.WindowCategories()...)
		for _, cat := range cats {
			trF, trM := full.Tree(bf, cat), gated.Tree(bm, cat)
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
				t.Fatalf("user %s cat %s: leaf diverged\n full: %+v\ngate: %+v", id, cat, sf, sm)
			}
		}
	}
	for trial := 0; trial < 6; trial++ {
		q := ranking.BuildQuery(sportsItem(trial), nil)
		rf, _ := full.Recommend(q, store.Len())
		rm, _ := gated.Recommend(q, store.Len())
		if !reflect.DeepEqual(rf, rm) {
			t.Fatalf("trial %d: results diverged\n full: %v\ngate: %v", trial, rf, rm)
		}
	}
}

// TestUpdateUserCatsMatchesFull pins the roll-gated refresh's exactness at
// the index level: RefreshUser driven by each observation's roll flag
// leaves the index identical to the rebuild-everything path after EVERY
// step — including window rolls, universe growth by other users, and
// remove-then-reobserve.
func TestUpdateUserCatsMatchesFull(t *testing.T) {
	store, bg, cats := fixture(t, 8)
	probs := MLEProbs{Store: store}
	cfg := Config{Categories: cats}
	full, err := Build(store, bg, probs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := Build(store, bg, probs, cfg)
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
		if err := gated.RefreshUser(id, rolled); err != nil {
			t.Fatal(err)
		}
		compareIndexes(t, full, gated, store)
	}

	// Removed-then-reobserved: the gated path must re-insert the user into
	// EVERY inhabited tree (a missing leaf or a fresh block assignment
	// forces a rebuild without a roll).
	full.RemoveUser("mixed000")
	gated.RemoveUser("mixed000")
	p, _ := store.Lookup("mixed000")
	ev := mixedEvent(1)
	rolled := p.Observe(ev)
	if err := full.UpdateUser("mixed000"); err != nil {
		t.Fatal(err)
	}
	if err := gated.RefreshUser("mixed000", rolled); err != nil {
		t.Fatal(err)
	}
	compareIndexes(t, full, gated, store)

	// A brand-new user bootstrapped with long-term history under names no
	// block has seen: its first refresh assigns a block, so the universes
	// must grow although no window rolled.
	fresh := store.Get("fresh000")
	for i := 0; i < 4; i++ {
		fresh.ObserveLongTerm(profile.Event{Category: "news", Producer: fmt.Sprintf("new-up%d", i),
			Entities: []string{fmt.Sprintf("new-e%d", i)}})
	}
	if err := full.UpdateUser("fresh000"); err != nil {
		t.Fatal(err)
	}
	if err := gated.RefreshUser("fresh000", false); err != nil {
		t.Fatal(err)
	}
	compareIndexes(t, full, gated, store)
}

// TestRefreshUnconfiguredCategoryAfterBuild is the regression test of the
// fourth routing-growth case: two users of one block hold long-term events
// in a category outside Config.Categories before Build, so the build makes
// no tree for it. The first user's non-rolling refresh creates the tree;
// the second user's must still add its own names to the tree's entity
// universe, although neither its window rolled nor its tree is new.
func TestRefreshUnconfiguredCategoryAfterBuild(t *testing.T) {
	store, bg, cats := fixture(t, 4)
	users := []string{"sports000", "sports001"}
	for i, id := range users {
		p, _ := store.Lookup(id)
		p.ObserveLongTerm(profile.Event{Category: "esports", Producer: "twitch-up0",
			Entities: []string{fmt.Sprintf("speedrun%d", i), "finals"}})
	}
	probs := MLEProbs{Store: store}
	cfg := Config{Categories: cats, FixedBlocks: 1}
	full, err := Build(store, bg, probs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := Build(store, bg, probs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Tree(0, "esports") != nil {
		t.Fatal("Build made a tree for an unconfigured category")
	}
	for i, id := range users {
		p, _ := store.Lookup(id)
		if p.Observe(mixedEvent(i)) {
			t.Fatal("fixture window rolled")
		}
		if err := full.UpdateUser(id); err != nil {
			t.Fatal(err)
		}
		if err := gated.RefreshUser(id, false); err != nil {
			t.Fatal(err)
		}
		compareIndexes(t, full, gated, store)
	}
	if n := gated.Tree(0, "esports").Ent.Len(); n != 3 {
		t.Fatalf("esports entity universe holds %d names, want 3", n)
	}
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
// loop: a steady-state non-rolling refresh (warm scratch pool, warm tree
// buffers, no universe growth) must run allocation-free, and even the
// rebuild-everything path must stay within a small ceiling (the leaf
// Insert path is excluded — the user already has leaves).
func TestRefreshAllocs(t *testing.T) {
	ix, store, _ := buildIndex(t, 50, Config{})
	p, _ := store.Lookup("sports000")
	i := 0
	// Warm up: grow scratch buffers, tree aggregate buffers and universes.
	// The window rolls every 5 observations; each roll's refresh grows the
	// universes.
	for ; i < 12; i++ {
		rolled := p.Observe(profile.Event{Category: "sports", Producer: "sports-up0",
			Entities: []string{fmt.Sprintf("sports-e%d", i%6)}})
		if err := ix.RefreshUser("sports000", rolled); err != nil {
			t.Fatal(err)
		}
	}
	// Measure the refresh alone (it is idempotent): event construction and
	// Profile.Observe have their own costs that are not the refresh loop's.
	gated := testing.AllocsPerRun(50, func() {
		if err := ix.RefreshUser("sports000", false); err != nil {
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
	if gated > 0 {
		t.Errorf("non-rolling refresh allocates %.1f allocs/op, want 0", gated)
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
// (block assignment + tree inserts) — the cost roll gating cannot avoid.
// The cold profiles are made and filled before the timer starts, and the
// set-up's garbage collected, so the loop times RefreshUser alone.
func BenchmarkRefreshColdUser(b *testing.B) {
	ix, store, _ := buildIndex(b, 100, Config{})
	ids := make([]string, b.N)
	for i := range ids {
		ids[i] = fmt.Sprintf("cold%06d", i)
		benchObserveCats(store.Get(ids[i]), 6)
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for _, id := range ids {
		if err := ix.RefreshUser(id, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefreshOneDirtyOfN is the heavy-tailed steady state roll gating
// targets: a user inhabiting all three fixture categories takes one event
// in ONE of them. gated restamps all three leaves and rebuilds them only
// when the window rolls (one observation in five); full rebuilds all three
// every time. gated_wide is gated over one block of 600 users whose
// producer universe is 600 wide, the width of a ytube-10k block: the cost
// of aggregate maintenance in the signature trees scales with that width,
// which the three-producer fixture cannot show. Each run reports the
// width of the refreshed user's producer universe (prod_universe).
func BenchmarkRefreshOneDirtyOfN(b *testing.B) {
	run := func(b *testing.B, gated bool, nPerCohort, prodsPerCat, fixedBlocks int) {
		store, bg, cats := fixtureProds(nPerCohort, prodsPerCat)
		ix, err := Build(store, bg, MLEProbs{Store: store}, Config{Categories: cats, FixedBlocks: fixedBlocks})
		if err != nil {
			b.Fatal(err)
		}
		id := "mixed000"
		p, _ := store.Lookup(id)
		benchObserveCats(p, 30) // inhabit all three categories
		if err := ix.UpdateUser(id); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rolled := p.Observe(profile.Event{Category: "sports", Producer: "sports-up0",
				Entities: []string{fmt.Sprintf("sports-e%d", i%6)}})
			if err := ix.RefreshUser(id, rolled || !gated); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		block, _ := ix.BlockOf(id)
		b.ReportMetric(float64(ix.Tree(block, "sports").Prod.Len()), "prod_universe")
	}
	b.Run("gated", func(b *testing.B) { run(b, true, 100, 3, 0) })
	b.Run("full", func(b *testing.B) { run(b, false, 100, 3, 0) })
	b.Run("gated_wide", func(b *testing.B) { run(b, true, 200, 200, 1) })
}

// BenchmarkRefreshWindowRoll measures a window of observations ending in a
// roll (size 5 fixture store): four restamps and one full rebuild per
// iteration — the rolling steady state of the gated path.
func BenchmarkRefreshWindowRoll(b *testing.B) {
	ix, store, _ := buildIndex(b, 100, Config{})
	id := "mixed000"
	p, _ := store.Lookup(id)
	benchObserveCats(p, 30)
	if err := ix.UpdateUser(id); err != nil {
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
			if err := ix.RefreshUser(id, rolled); err != nil {
				b.Fatal(err)
			}
		}
	}
}
