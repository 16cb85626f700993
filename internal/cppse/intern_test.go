package cppse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ssrec/internal/model"
	"ssrec/internal/profile"
	"ssrec/internal/ranking"
)

// internStep is one observation of the interning-order script.
type internStep struct {
	user string
	ev   profile.Event
}

// internScript drives window rolls across categories, a user newly
// active in a category, and a category outside the configuration.
func internScript() []internStep {
	var steps []internStep
	users := []string{"mixed000", "sports001", "music002", "sports003"}
	for i := 0; i < 30; i++ {
		steps = append(steps, internStep{users[i%len(users)], mixedEvent(i + 5)})
	}
	// music000 has never browsed news.
	steps = append(steps, internStep{"music000", profile.Event{Category: "news", Producer: "wire-up9",
		Entities: []string{"news-e3", "news-fresh"}}})
	for i, id := range []string{"sports000", "sports001", "mixed001"} {
		steps = append(steps, internStep{id, profile.Event{Category: "esports", Producer: "twitch-up0",
			Entities: []string{fmt.Sprintf("speedrun%d", i), "finals"}}})
	}
	return steps
}

// shuffledTwin returns a store holding src's profiles whose interner saw
// every name of src and of steps first, in a shuffled order, so no name
// gets the id src's interner gave it.
func shuffledTwin(src *profile.Store, steps []internStep, seed int64) *profile.Store {
	var snaps []profile.Snapshot
	for _, id := range src.UserIDs() {
		p, _ := src.Lookup(id)
		snaps = append(snaps, p.Snapshot())
	}
	var evs []profile.Event
	for _, s := range snaps {
		evs = append(append(evs, s.LongTerm...), s.Window...)
	}
	for _, st := range steps {
		evs = append(evs, st.ev)
	}
	type name struct{ kind, cat, name string }
	var names []name
	for _, e := range evs {
		names = append(names, name{"cat", "", e.Category}, name{"prod", "", e.Producer})
		for _, n := range e.Entities {
			names = append(names, name{"ent", e.Category, n})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	twin := profile.NewStore(5)
	in := twin.Names()
	for _, n := range names {
		switch n.kind {
		case "cat":
			in.Cats.Intern(n.name)
		case "prod":
			in.Prods.Intern(n.name)
		default:
			in.Ents(in.Cats.Intern(n.cat)).Intern(n.name)
		}
	}
	for _, s := range snaps {
		twin.Restore(s)
	}
	return twin
}

// sameIndex fails unless a and b hold the same State, the same trees
// node by node, and answer queries to the bit. Their interners may
// number names differently.
func sameIndex(t *testing.T, how string, a, b *Index, users int) {
	t.Helper()
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatalf("%s: State diverged\n a: %+v\n b: %+v", how, a.State(), b.State())
	}
	sameTrees(t, how, a, b)
	items := []model.Item{sportsItem(0), sportsItem(3),
		{ID: "q1", Category: "news", Producer: "wire-up9", Entities: []string{"news-fresh", "news-e1"}},
		{ID: "q2", Category: "esports", Producer: "twitch-up0", Entities: []string{"finals", "speedrun1"}},
		{ID: "q3", Category: "music", Producer: "nobody", Entities: []string{"never-seen", "music-e2"}},
	}
	for _, v := range items {
		q := ranking.BuildQuery(v, nil)
		ra, sa := a.Recommend(q, users)
		rb, sb := b.Recommend(q, users)
		if len(ra) != len(rb) || sa != sb {
			t.Fatalf("%s: item %s: %d results %+v, other %d %+v", how, v.ID, len(ra), sa, len(rb), sb)
		}
		for i := range ra {
			if ra[i].UserID != rb[i].UserID || math.Float64bits(ra[i].Score) != math.Float64bits(rb[i].Score) {
				t.Fatalf("%s: item %s rank %d: %+v, other %+v", how, v.ID, i, ra[i], rb[i])
			}
		}
	}
}

// TestInterningOrderNeverReachesPositions builds two indexes over the
// same profiles, one of whose interners saw every name in a shuffled
// order, and drives both through the same refreshes: window rolls, a
// newly active category, an unconfigured category, RemoveUser, and a
// rebuild from State followed by incremental refreshes. Ids differ
// between the two, so any place where an id, rather than a name, decided
// a position or an order shows as a divergence.
func TestInterningOrderNeverReachesPositions(t *testing.T) {
	steps := internScript()
	storeA, bg, cats := fixture(t, 6)
	storeB := shuffledTwin(storeA, steps, 99)
	cfg := Config{Categories: cats}
	build := func(store *profile.Store) *Index {
		ix, err := Build(store, bg, MLEProbs{Store: store}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	a, b := build(storeA), build(storeB)
	sameIndex(t, "build", a, b, storeA.Len())

	apply := func(a, b *Index, steps []internStep) {
		for _, st := range steps {
			for _, side := range []struct {
				ix    *Index
				store *profile.Store
			}{{a, storeA}, {b, storeB}} {
				rolled := side.store.Get(st.user).Observe(st.ev)
				if err := side.ix.RefreshUser(st.user, rolled); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	half := len(steps) / 2
	apply(a, b, steps[:half])
	sameIndex(t, "refreshes", a, b, storeA.Len())

	for _, ix := range []*Index{a, b} {
		ix.RemoveUser("mixed000")
	}
	apply(a, b, steps[half:])
	sameIndex(t, "remove and unconfigured category", a, b, storeA.Len())

	rebuild := func(ix *Index, store *profile.Store) *Index {
		out, err := BuildFromState(store, bg, MLEProbs{Store: store}, cfg, ix.State())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b = rebuild(a, storeA), rebuild(b, storeB)
	sameIndex(t, "rebuild from state", a, b, storeA.Len())
	apply(a, b, internScript()[:12])
	sameIndex(t, "refreshes after rebuild", a, b, storeA.Len())
	unconfigured := 0
	for _, tr := range a.allTrees() {
		if tr.Category == "esports" {
			unconfigured++
		}
	}
	if unconfigured == 0 {
		t.Fatal("the script created no tree for the unconfigured category")
	}
}
