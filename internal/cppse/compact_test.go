package cppse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ssrec/internal/model"
	"ssrec/internal/profile"
	"ssrec/internal/ranking"
	"ssrec/internal/sigtree"
)

// wideFixture builds users at the ytube-10k leaf shape: each user browses
// two of four categories through six producers drawn from 600 and ten
// entities per category drawn from 80, so block producer universes are
// hundreds wide while a leaf lists a handful of counts.
func wideFixture(nUsers int) (*profile.Store, *profile.Background, []string) {
	cats := []string{"c0", "c1", "c2", "c3"}
	rng := rand.New(rand.NewSource(7))
	store := profile.NewStore(5)
	var items []model.Item
	for u := range nUsers {
		p := store.Get(fmt.Sprintf("u%05d", u))
		home := []string{cats[u%4], cats[(u/4+1+u)%4]}
		var prods []string
		for range 6 {
			prods = append(prods, fmt.Sprintf("up%03d", rng.Intn(600)))
		}
		ents := map[string][]string{}
		for _, c := range home {
			for range 10 {
				ents[c] = append(ents[c], fmt.Sprintf("%s-e%02d", c, rng.Intn(80)))
			}
		}
		for range 30 {
			c := home[rng.Intn(2)]
			e := profile.Event{Category: c, Producer: prods[rng.Intn(len(prods))],
				Entities: []string{ents[c][rng.Intn(10)], ents[c][rng.Intn(10)]}}
			p.ObserveLongTerm(e)
			items = append(items, model.Item{ID: fmt.Sprintf("v%d", len(items)), Category: c,
				Producer: e.Producer, Entities: e.Entities})
		}
	}
	return store, profile.NewBackground(items, 10), cats
}

// TestLeafCountsArePositive pins what makes an unlisted coordinate read
// exactly like the dense zero it replaced: every count a leaf lists is a
// positive integer (float64 of a profile count, never −0), lists ascend,
// and every query weight the encoder emits is finite and non-zero, so a
// skipped W·(+0) term is ±0.
func TestLeafCountsArePositive(t *testing.T) {
	store, bg, cats := wideFixture(300)
	ix, err := Build(store, bg, MLEProbs{Store: store}, Config{Categories: cats})
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for _, tr := range ix.allTrees() {
		for _, id := range tr.Users() {
			sig, _ := tr.Get(id)
			leaves++
			for _, cs := range [][]sigtree.Coord{sig.Prod, sig.Ent} {
				for i, c := range cs {
					if c.Val <= 0 || c.Val != math.Trunc(c.Val) || (i > 0 && c.Idx <= cs[i-1].Idx) {
						t.Fatalf("tree %d/%s user %s: list %v", tr.BlockID, tr.Category, id, cs)
					}
				}
			}
		}
	}
	if leaves == 0 {
		t.Fatal("no leaves built")
	}
	sc := getScratch()
	defer putScratch(sc)
	for i := range 20 {
		v := model.Item{ID: fmt.Sprintf("q%d", i), Category: cats[i%4], Producer: fmt.Sprintf("up%03d", i*7),
			Entities: []string{fmt.Sprintf("%s-e%02d", cats[i%4], i), fmt.Sprintf("%s-e%02d", cats[i%4], 3*i)}}
		for _, tq := range ix.encodeAll(sc, ranking.BuildQuery(v, nil)) {
			for j, we := range tq.Query.Ents {
				if we.W == 0 || math.IsInf(we.W, 0) || math.IsNaN(we.W) || (j > 0 && we.Idx <= tq.Query.Ents[j-1].Idx) {
					t.Fatalf("item %s: query entities %v", v.ID, tq.Query.Ents)
				}
			}
		}
	}
}

// BenchmarkIndexBytesPerLeaf builds an index over 2 000 users at the
// ytube-10k leaf shape and reports the live heap the index adds per leaf
// entry (B/leaf): what the signature encoding costs in memory, and the
// bytes of the universes' id → position slices.
func BenchmarkIndexBytesPerLeaf(b *testing.B) {
	store, bg, cats := wideFixture(2000)
	probs := MLEProbs{Store: store}
	var ms runtime.MemStats
	var perLeaf, uniIndex float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := int64(ms.HeapAlloc)
		ix, err := Build(store, bg, probs, Config{Categories: cats})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		perLeaf = float64(int64(ms.HeapAlloc)-before) / float64(ix.Stats().TotalLeafCount)
		uniIndex = float64(ix.UniverseIndexBytes())
		runtime.KeepAlive(ix)
	}
	b.ReportMetric(perLeaf, "B/leaf")
	b.ReportMetric(uniIndex, "universe-index-B")
}
