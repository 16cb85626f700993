package cppse

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ssrec/internal/model"
	"ssrec/internal/profile"
	"ssrec/internal/ranking"
)

// fixture builds a store with three user cohorts (sports fans, music fans,
// mixed) plus the matching background.
func fixture(t testing.TB, nPerCohort int) (*profile.Store, *profile.Background, []string) {
	t.Helper()
	return fixtureProds(nPerCohort, 3)
}

// fixtureProds is fixture over prodsPerCat producers per category: user
// c's i-th event goes to producer (i+c) mod prodsPerCat of its category,
// so with enough users every producer is seen.
func fixtureProds(nPerCohort, prodsPerCat int) (*profile.Store, *profile.Background, []string) {
	cats := []string{"sports", "music", "news"}
	store := profile.NewStore(5)
	rng := rand.New(rand.NewSource(42))

	var items []model.Item
	mkEvent := func(cat string, i int) profile.Event {
		up := fmt.Sprintf("%s-up%d", cat, i%prodsPerCat)
		ents := []string{
			fmt.Sprintf("%s-e%d", cat, i%6),
			fmt.Sprintf("%s-e%d", cat, (i+1)%6),
		}
		items = append(items, model.Item{
			ID: fmt.Sprintf("bg-%s-%d", cat, len(items)), Category: cat,
			Producer: up, Entities: ents,
		})
		return profile.Event{Category: cat, Producer: up, Entities: ents}
	}
	for c := 0; c < nPerCohort; c++ {
		sports := store.Get(fmt.Sprintf("sports%03d", c))
		music := store.Get(fmt.Sprintf("music%03d", c))
		mixed := store.Get(fmt.Sprintf("mixed%03d", c))
		for i := 0; i < 20; i++ {
			sports.ObserveLongTerm(mkEvent("sports", i+c))
			music.ObserveLongTerm(mkEvent("music", i+c))
			if i%2 == 0 {
				mixed.ObserveLongTerm(mkEvent("sports", i+c))
			} else {
				mixed.ObserveLongTerm(mkEvent("news", i+c))
			}
		}
		_ = rng
	}
	bg := profile.NewBackground(items, 10)
	return store, bg, cats
}

func buildIndex(t testing.TB, nPerCohort int, cfg Config) (*Index, *profile.Store, *profile.Background) {
	t.Helper()
	store, bg, cats := fixture(t, nPerCohort)
	cfg.Categories = cats
	probs := MLEProbs{Store: store}
	ix, err := Build(store, bg, probs, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix, store, bg
}

func sportsItem(i int) model.Item {
	return model.Item{
		ID: "q", Category: "sports", Producer: "sports-up0",
		Entities: []string{fmt.Sprintf("sports-e%d", i%6), "sports-e1"},
	}
}

func TestBuildBasic(t *testing.T) {
	ix, store, _ := buildIndex(t, 10, Config{})
	s := ix.Stats()
	if s.Users != store.Len() {
		t.Errorf("indexed %d users, want %d", s.Users, store.Len())
	}
	if s.Blocks == 0 || s.Trees == 0 || s.HashKeys == 0 {
		t.Errorf("degenerate stats: %+v", s)
	}
	// Every user must be assigned to a block.
	for _, id := range store.UserIDs() {
		if _, ok := ix.BlockOf(id); !ok {
			t.Errorf("user %s unassigned", id)
		}
	}
}

func TestBuildRequiresCategories(t *testing.T) {
	store := profile.NewStore(5)
	bg := profile.NewBackground(nil, 10)
	if _, err := Build(store, bg, MLEProbs{Store: store}, Config{}); err == nil {
		t.Fatal("Build accepted empty categories")
	}
}

func TestBlockingSeparatesCohorts(t *testing.T) {
	ix, _, _ := buildIndex(t, 10, Config{SimThreshold: 0.7})
	// All sports users in one block, all music users in another,
	// and they differ.
	b0, _ := ix.BlockOf("sports000")
	b1, _ := ix.BlockOf("music000")
	if b0 == b1 {
		t.Errorf("sports and music users share block %d", b0)
	}
	for i := 1; i < 10; i++ {
		if b, _ := ix.BlockOf(fmt.Sprintf("sports%03d", i)); b != b0 {
			t.Errorf("sports%03d in block %d, want %d", i, b, b0)
		}
	}
}

func TestRecommendPrefersCohort(t *testing.T) {
	ix, _, _ := buildIndex(t, 10, Config{})
	q := ranking.BuildQuery(sportsItem(0), nil)
	recs, _ := ix.Recommend(q, 10)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	sportsHits := 0
	for _, r := range recs {
		if r.UserID[:5] == "sport" || r.UserID[:5] == "mixed" {
			sportsHits++
		}
	}
	if sportsHits < len(recs)*7/10 {
		t.Errorf("only %d/%d recommendations from sports-interested cohorts: %v",
			sportsHits, len(recs), recs)
	}
}

func TestRecommendMatchesScan(t *testing.T) {
	ix, _, _ := buildIndex(t, 15, Config{Fanout: 4})
	for trial := 0; trial < 10; trial++ {
		q := ranking.BuildQuery(sportsItem(trial), nil)
		for _, k := range []int{1, 5, 20} {
			got, _ := ix.Recommend(q, k)
			want := ix.RecommendScan(q, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d:\n got %v\nwant %v", trial, k, got, want)
			}
		}
	}
}

func TestRecommendUnknownEntities(t *testing.T) {
	ix, _, _ := buildIndex(t, 5, Config{})
	v := model.Item{ID: "q", Category: "sports", Producer: "ghost",
		Entities: []string{"never-seen-entity"}}
	recs, _ := ix.Recommend(ranking.BuildQuery(v, nil), 5)
	// No hash entry matches, so no candidate trees: empty result, no panic.
	if len(recs) != 0 {
		t.Errorf("recommendations for unmatched item: %v", recs)
	}
}

func TestCandidateUsersSubset(t *testing.T) {
	ix, store, _ := buildIndex(t, 10, Config{})
	q := ranking.BuildQuery(sportsItem(1), nil)
	cand := ix.CandidateUsers(q)
	if len(cand) == 0 || len(cand) > store.Len() {
		t.Fatalf("candidates = %d (store %d)", len(cand), store.Len())
	}
	// music-only users must not be candidates for a sports item.
	for _, u := range cand {
		if u[:5] == "music" {
			t.Errorf("music user %s is a sports candidate", u)
		}
	}
}

func TestUpdateExistingUserChangesScores(t *testing.T) {
	ix, store, _ := buildIndex(t, 10, Config{})
	// A music user starts consuming sports heavily.
	p, _ := store.Lookup("music000")
	for i := 0; i < 30; i++ {
		p.ObserveLongTerm(profile.Event{Category: "sports", Producer: "sports-up0",
			Entities: []string{"sports-e1", "sports-e2"}})
	}
	if err := ix.UpdateUser("music000"); err != nil {
		t.Fatalf("UpdateUser: %v", err)
	}
	q := ranking.BuildQuery(sportsItem(1), nil)
	recs, _ := ix.Recommend(q, len(store.UserIDs()))
	found := false
	for _, r := range recs {
		if r.UserID == "music000" {
			found = true
		}
	}
	if !found {
		t.Error("updated user never appears in sports results")
	}
}

func TestUpdateNewUser(t *testing.T) {
	ix, store, _ := buildIndex(t, 5, Config{})
	p := store.Get("newcomer")
	for i := 0; i < 10; i++ {
		p.ObserveLongTerm(profile.Event{Category: "sports", Producer: "sports-up1",
			Entities: []string{"sports-e3"}})
	}
	if err := ix.UpdateUser("newcomer"); err != nil {
		t.Fatalf("UpdateUser: %v", err)
	}
	b, ok := ix.BlockOf("newcomer")
	if !ok {
		t.Fatal("new user unassigned")
	}
	// Must land in the sports cohort's block.
	bSports, _ := ix.BlockOf("sports000")
	if b != bSports {
		t.Errorf("newcomer in block %d, sports cohort in %d", b, bSports)
	}
	if tr := ix.Tree(b, "sports"); tr == nil || !tr.Has("newcomer") {
		t.Error("newcomer missing from sports tree")
	}
}

func TestUpdateUnknownEntityExtendsHash(t *testing.T) {
	ix, store, _ := buildIndex(t, 5, Config{})
	before := ix.Stats().HashKeys
	p, _ := store.Lookup("sports000")
	p.ObserveLongTerm(profile.Event{Category: "sports", Producer: "sports-up0",
		Entities: []string{"brand-new-entity"}})
	if err := ix.UpdateUser("sports000"); err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().HashKeys; got != before+1 {
		t.Errorf("hash keys %d -> %d, want +1", before, got)
	}
	// The new entity must now route queries.
	v := model.Item{ID: "q", Category: "sports", Producer: "sports-up0",
		Entities: []string{"brand-new-entity"}}
	recs, _ := ix.Recommend(ranking.BuildQuery(v, nil), 5)
	if len(recs) == 0 {
		t.Error("no results through newly hashed entity")
	}
}

func TestUpdateUnknownUserErrors(t *testing.T) {
	ix, _, _ := buildIndex(t, 3, Config{})
	if err := ix.UpdateUser("ghost"); err == nil {
		t.Fatal("UpdateUser accepted unknown user")
	}
}

func TestFixedBlocksSweep(t *testing.T) {
	// Table II machinery: forcing more blocks must not increase the
	// maximum per-tree universe sizes.
	var prevEnt int
	for _, k := range []int{1, 3, 6} {
		ix, _, _ := buildIndex(t, 10, Config{FixedBlocks: k})
		s := ix.Stats()
		if s.Blocks > k {
			t.Errorf("FixedBlocks=%d produced %d blocks", k, s.Blocks)
		}
		if k == 1 {
			prevEnt = s.MaxEntityUni
			continue
		}
		if s.MaxEntityUni > prevEnt {
			t.Errorf("k=%d: MaxEntityUni %d grew above single-block %d", k, s.MaxEntityUni, prevEnt)
		}
	}
}

func TestMLEProbs(t *testing.T) {
	store := profile.NewStore(3)
	p := store.Get("u")
	p.ObserveLongTerm(profile.Event{Category: "a", Producer: "x"})
	p.ObserveLongTerm(profile.Event{Category: "a", Producer: "x"})
	p.Observe(profile.Event{Category: "b", Producer: "x"})
	probs := MLEProbs{Store: store}
	cats := []string{"a", "b"}
	long, short := probs.Rows("u", cats, make([]float64, 4))
	if long[0] <= long[1] {
		t.Error("long-term MLE ignores history")
	}
	if short[1] <= short[0] {
		t.Error("short-term prob ignores window")
	}
	rl, rs := probs.Rows("u", []string{"b", "a"}, make([]float64, 4))
	if rl[0] != long[1] || rl[1] != long[0] || rs[0] != short[1] || rs[1] != short[0] {
		t.Error("rows do not follow the order of the categories passed")
	}
	long, short = probs.Rows("ghost", cats, make([]float64, 4))
	if long[0] <= 0 || short[0] <= 0 {
		t.Error("unknown user probabilities must be positive")
	}
}

func BenchmarkRecommend(b *testing.B) {
	ix, _, _ := buildIndex(b, 200, Config{})
	q := ranking.BuildQuery(sportsItem(0), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Recommend(q, 30)
	}
}

func BenchmarkUpdateUser(b *testing.B) {
	ix, store, _ := buildIndex(b, 100, Config{})
	p, _ := store.Lookup("sports000")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(profile.Event{Category: "sports", Producer: "sports-up0",
			Entities: []string{fmt.Sprintf("sports-e%d", i%6)}})
		if err := ix.UpdateUser("sports000"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestProducerRoutingFindsTrees(t *testing.T) {
	// An item whose entities are all unseen must still reach the trees of
	// blocks that have browsed its producer (the producer routing path).
	ix, _, _ := buildIndex(t, 8, Config{})
	v := model.Item{ID: "q", Category: "sports", Producer: "sports-up0",
		Entities: []string{"entity-nobody-has-seen"}}
	recs, _ := ix.Recommend(ranking.BuildQuery(v, nil), 5)
	if len(recs) == 0 {
		t.Fatal("producer routing found no candidates")
	}
	for _, r := range recs {
		if r.UserID[:5] == "music" {
			t.Errorf("music-only user %s routed for sports item", r.UserID)
		}
	}
}

func TestUnknownProducerAndEntities(t *testing.T) {
	ix, _, _ := buildIndex(t, 5, Config{})
	v := model.Item{ID: "q", Category: "sports", Producer: "ghost-producer",
		Entities: []string{"unseen-entity"}}
	recs, _ := ix.Recommend(ranking.BuildQuery(v, nil), 5)
	if len(recs) != 0 {
		t.Errorf("no routing signal but got %d recommendations", len(recs))
	}
}

func TestRemoveUser(t *testing.T) {
	ix, store, _ := buildIndex(t, 8, Config{})
	if !ix.RemoveUser("sports000") {
		t.Fatal("RemoveUser returned false")
	}
	if _, ok := ix.BlockOf("sports000"); ok {
		t.Fatal("removed user still assigned to a block")
	}
	if ix.RemoveUser("sports000") {
		t.Fatal("double removal returned true")
	}
	if ix.RemoveUser("ghost") {
		t.Fatal("removing unknown user returned true")
	}
	// The removed user never appears in results again.
	q := ranking.BuildQuery(sportsItem(0), nil)
	recs, _ := ix.Recommend(q, store.Len())
	for _, r := range recs {
		if r.UserID == "sports000" {
			t.Fatal("removed user recommended")
		}
	}
	// And can rejoin via Algorithm 2.
	if err := ix.UpdateUser("sports000"); err != nil {
		t.Fatalf("re-adding removed user: %v", err)
	}
	if _, ok := ix.BlockOf("sports000"); !ok {
		t.Fatal("re-added user unassigned")
	}
}
