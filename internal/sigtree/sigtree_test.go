package sigtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"ssrec/internal/intern"
)

// randomSignature builds a plausible leaf signature over the given
// universe sizes.
func randomSignature(nProd, nEnt int, rng *rand.Rand) Signature {
	s := Signature{
		Pl: 0.05 + 0.9*rng.Float64(),
		Ps: 0.05 + 0.9*rng.Float64(),
	}
	prod, ent := make([]float64, nProd), make([]float64, nEnt)
	for i := range prod {
		prod[i] = float64(rng.Intn(20))
		s.ProdTotal += prod[i]
	}
	for i := range ent {
		ent[i] = float64(rng.Intn(10))
		s.EntTotal += ent[i]
	}
	if s.ProdTotal == 0 {
		prod[0], s.ProdTotal = 1, 1
	}
	if s.EntTotal == 0 {
		ent[0], s.EntTotal = 1, 1
	}
	s.Prod, s.Ent = fromDense(prod), fromDense(ent)
	return s
}

// randomQuery builds a query with up to three distinct entities, listed
// in ascending index order as the cppse encoder emits them.
func randomQuery(nProd, nEnt int, rng *rand.Rand) *Query {
	q := &Query{
		ProdIdx: rng.Intn(nProd),
		BgProd:  0.01 + rng.Float64()*0.1,
		BgEnt:   0.01 + rng.Float64()*0.2,
		Mu:      10,
		LambdaS: 0.4,
	}
	used := map[int]bool{}
	for i := 0; i < 3; i++ {
		idx := rng.Intn(nEnt)
		if used[idx] {
			continue
		}
		used[idx] = true
		q.Ents = append(q.Ents, WeightedIdx{Idx: idx, W: 0.5 + rng.Float64()})
	}
	slices.SortFunc(q.Ents, func(a, b WeightedIdx) int { return a.Idx - b.Idx })
	q.EntW = AppendEntWeights(nil, q.Ents)
	return q
}

func buildTree(t testing.TB, nUsers, fanout int, seed int64) (*Tree, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prod := NewUniverse(nil, []string{"p0", "p1", "p2", "p3"})
	ent := NewUniverse(nil, []string{"e0", "e1", "e2", "e3", "e4", "e5"})
	tr := New(0, "sports", prod, ent, fanout)
	for i := 0; i < nUsers; i++ {
		tr.Insert(fmt.Sprintf("u%03d", i), randomSignature(prod.Len(), ent.Len(), rng))
	}
	return tr, rng
}

// TestUniverseSharedIDSpace pins that positions follow each universe's
// own insertion order whatever ids the shared table assigned.
// posOf looks name up in u's id space and returns its position in u.
func posOf(u *Universe, name string) (int, bool) {
	id, ok := u.tab.Lookup(name)
	if !ok {
		return 0, false
	}
	return u.Pos(id)
}

func TestUniverseSharedIDSpace(t *testing.T) {
	tab := new(intern.Table)
	for _, n := range []string{"z", "y", "x", "w"} {
		tab.Intern(n)
	}
	a := NewUniverse(tab, []string{"x", "z"})
	b := NewUniverse(tab, nil)
	b.AddID(3) // "w"
	b.Add("v") // interned as id 4
	y, _ := tab.Lookup("y")
	if _, ok := a.Pos(y); ok {
		t.Fatal("a holds a name it never added")
	}
	if i, ok := posOf(a, "z"); !ok || i != 1 {
		t.Fatalf("position of z in a = %d %v", i, ok)
	}
	if i, ok := b.Pos(4); !ok || i != 1 || b.Name(4) != "v" {
		t.Fatalf("b.Pos(4) = %d %v", i, ok)
	}
	if _, ok := b.Pos(-1); ok {
		t.Fatal("a negative id has a position")
	}
	if !reflect.DeepEqual(a.Names(), []string{"x", "z"}) || !reflect.DeepEqual(b.Names(), []string{"w", "v"}) {
		t.Fatalf("Names = %v, %v", a.Names(), b.Names())
	}
}

func TestUniverse(t *testing.T) {
	u := NewUniverse(nil, []string{"a", "b", "a"})
	if u.Len() != 2 {
		t.Fatalf("Len = %d", u.Len())
	}
	if i, ok := posOf(u, "b"); !ok || i != 1 {
		t.Fatalf("position of b = %d %v", i, ok)
	}
	if _, ok := posOf(u, "z"); ok {
		t.Fatal("phantom index")
	}
	if got := u.Add("c"); got != 2 {
		t.Fatalf("Add(c) = %d", got)
	}
	if got := u.Add("a"); got != 0 {
		t.Fatalf("Add(a) = %d, want existing index 0", got)
	}
	if !reflect.DeepEqual(u.Names(), []string{"a", "b", "c"}) {
		t.Fatalf("Names = %v", u.Names())
	}
}

func TestInsertAndGet(t *testing.T) {
	tr, rng := buildTree(t, 20, 4, 1)
	if tr.Len() != 20 {
		t.Fatalf("Len = %d", tr.Len())
	}
	sig := randomSignature(4, 6, rng)
	tr.Insert("newuser", sig)
	got, ok := tr.Get("newuser")
	if !ok || got.Pl != sig.Pl {
		t.Fatalf("Get after Insert: %v %v", got, ok)
	}
	if !tr.Has("newuser") || tr.Has("ghost") {
		t.Fatal("Has broken")
	}
	if len(tr.Users()) != 21 {
		t.Fatalf("Users = %d", len(tr.Users()))
	}
}

func TestInsertExistingUpdates(t *testing.T) {
	tr, rng := buildTree(t, 5, 4, 2)
	sig := randomSignature(4, 6, rng)
	sig.Pl = 0.123456
	tr.Insert("u001", sig)
	if tr.Len() != 5 {
		t.Fatalf("duplicate insert grew tree: %d", tr.Len())
	}
	got, _ := tr.Get("u001")
	if got.Pl != 0.123456 {
		t.Fatalf("Pl = %v", got.Pl)
	}
}

func TestUpdateMissingUser(t *testing.T) {
	tr, rng := buildTree(t, 5, 4, 3)
	if sig := randomSignature(4, 6, rng); tr.UpdateCopy("ghost", &sig) {
		t.Fatal("UpdateCopy invented a user")
	}
}

func TestTreeGrowsDepth(t *testing.T) {
	tr, _ := buildTree(t, 100, 4, 4)
	if tr.Depth() < 3 {
		t.Errorf("depth = %d for 100 users at fanout 4", tr.Depth())
	}
}

// checkDomination walks the tree checking that every internal signature
// dominates its children (Lemma 1 precondition).
func checkDomination(t *testing.T, n *node) {
	t.Helper()
	var kids []*Signature
	if n.leaf {
		for _, e := range n.entries {
			kids = append(kids, &e.Sig)
		}
	} else {
		for _, c := range n.children {
			checkDomination(t, c)
			kids = append(kids, &c.sig)
		}
	}
	for _, k := range kids {
		if k.Pl > n.sig.Pl+1e-12 || k.Ps > n.sig.Ps+1e-12 {
			t.Fatalf("child Pl/Ps exceeds aggregate: %v/%v > %v/%v", k.Pl, k.Ps, n.sig.Pl, n.sig.Ps)
		}
		if k.ProdTotal < n.sig.ProdTotal-1e-12 || k.EntTotal < n.sig.EntTotal-1e-12 {
			t.Fatalf("child total below aggregate min")
		}
		for _, c := range k.Prod {
			if agg := at(n.sig.Prod, c.Idx); c.Val > agg+1e-12 {
				t.Fatalf("prod count %d: child %v > agg %v", c.Idx, c.Val, agg)
			}
		}
		for _, c := range k.Ent {
			if agg := at(n.sig.Ent, c.Idx); c.Val > agg+1e-12 {
				t.Fatalf("ent count %d: child %v > agg %v", c.Idx, c.Val, agg)
			}
		}
	}
}

func TestDominationInvariantAfterInserts(t *testing.T) {
	tr, _ := buildTree(t, 150, 4, 5)
	checkDomination(t, tr.root)
}

func TestDominationInvariantAfterUpdates(t *testing.T) {
	tr, rng := buildTree(t, 80, 4, 6)
	for i := 0; i < 200; i++ {
		u := fmt.Sprintf("u%03d", rng.Intn(80))
		sig := randomSignature(4, 6, rng)
		tr.UpdateCopy(u, &sig)
	}
	checkDomination(t, tr.root)
}

func TestUpperBoundHoldsForAllEntries(t *testing.T) {
	// R(root) must upper-bound R(leaf) for every user and many queries —
	// the Lemma 2 statement, via the score function.
	tr, rng := buildTree(t, 60, 4, 7)
	for trial := 0; trial < 50; trial++ {
		q := randomQuery(4, 6, rng)
		rootScore := tr.RootScore(q)
		for _, u := range tr.Users() {
			sig, _ := tr.Get(u)
			if s := score(&sig, nil, nil, q); s > rootScore+1e-9 {
				t.Fatalf("leaf %s score %v exceeds root bound %v", u, s, rootScore)
			}
		}
	}
}

func TestSearchMatchesSequentialScan(t *testing.T) {
	tr, rng := buildTree(t, 120, 5, 8)
	for trial := 0; trial < 30; trial++ {
		q := randomQuery(4, 6, rng)
		tqs := []TreeQuery{{Tree: tr, Query: q}}
		for _, k := range []int{1, 5, 10, 30} {
			got, _ := Search(tqs, k)
			want := SequentialScan(tqs, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d:\n got %v\nwant %v", trial, k, got, want)
			}
		}
	}
}

func TestSearchAcrossMultipleTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var tqs []TreeQuery
	for b := 0; b < 3; b++ {
		prod := NewUniverse(nil, []string{"p0", "p1", "p2", "p3"})
		ent := NewUniverse(nil, []string{"e0", "e1", "e2", "e3", "e4", "e5"})
		tr := New(b, "sports", prod, ent, 4)
		for i := 0; i < 40; i++ {
			tr.Insert(fmt.Sprintf("b%du%03d", b, i), randomSignature(4, 6, rng))
		}
		tqs = append(tqs, TreeQuery{Tree: tr, Query: randomQuery(4, 6, rng)})
	}
	got, _ := Search(tqs, 10)
	want := SequentialScan(tqs, 10)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-tree mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestSearchEmptyTree(t *testing.T) {
	prod := NewUniverse(nil, nil)
	ent := NewUniverse(nil, nil)
	tr := New(0, "c", prod, ent, 4)
	got, _ := Search([]TreeQuery{{Tree: tr, Query: &Query{Mu: 10, ProdIdx: -1}}}, 5)
	if len(got) != 0 {
		t.Fatalf("results from empty tree: %v", got)
	}
	if !math.IsInf(tr.RootScore(&Query{Mu: 10, ProdIdx: -1}), -1) {
		t.Fatal("empty tree root score not -Inf")
	}
}

func TestSearchPrunes(t *testing.T) {
	// Clustered users (as the CPPse user blocks produce): archetype
	// signatures with small noise. The upper bound must let the search
	// skip most entries.
	rng := rand.New(rand.NewSource(10))
	prod := NewUniverse(nil, []string{"p0", "p1", "p2", "p3"})
	ent := NewUniverse(nil, []string{"e0", "e1", "e2", "e3", "e4", "e5"})
	tr := New(0, "c", prod, ent, 6)
	archetypes := make([]Signature, 5)
	for a := range archetypes {
		archetypes[a] = randomSignature(4, 6, rng)
	}
	for i := 0; i < 300; i++ {
		sig := archetypes[i%5].Clone()
		sig.Pl = clamp01(sig.Pl + (rng.Float64()-0.5)*0.05)
		sig.Ps = clamp01(sig.Ps + (rng.Float64()-0.5)*0.05)
		ent := toDense(sig.Ent, 6)
		for j := range ent {
			ent[j] += float64(rng.Intn(2))
			sig.EntTotal++
		}
		sig.Ent = fromDense(ent)
		tr.Insert(fmt.Sprintf("u%03d", i), sig)
	}
	q := randomQuery(4, 6, rng)
	res, stats := Search([]TreeQuery{{Tree: tr, Query: q}}, 5)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	if stats.EntriesScored >= 300 {
		t.Errorf("no pruning: scored %d of 300", stats.EntriesScored)
	}
	if stats.EntriesScored+stats.EntriesSkipped == 0 {
		t.Errorf("stats not recorded: %+v", stats)
	}
}

func clamp01(v float64) float64 {
	if v < 0.01 {
		return 0.01
	}
	if v > 1 {
		return 1
	}
	return v
}

func TestScoreMonotoneInCounts(t *testing.T) {
	base := Signature{
		Pl: 0.3, Ps: 0.2,
		Prod: fromDense([]float64{5, 0}), ProdTotal: 5,
		Ent: fromDense([]float64{3, 1}), EntTotal: 4,
	}
	base.stampLogs()
	more := base.Clone()
	more.Prod[0].Val = 10
	q := &Query{ProdIdx: 0, BgProd: 0.05, Ents: []WeightedIdx{{0, 1}}, EntW: []float64{1}, BgEnt: 0.05, Mu: 10, LambdaS: 0.4}
	if score(&more, nil, nil, q) <= score(&base, nil, nil, q) {
		t.Error("score not monotone in producer count")
	}
	moreEnt := base.Clone()
	moreEnt.Ent[0].Val = 9
	if score(&moreEnt, nil, nil, q) <= score(&base, nil, nil, q) {
		t.Error("score not monotone in entity count")
	}
	lessTotal := base.Clone()
	lessTotal.EntTotal = 2
	if score(&lessTotal, nil, nil, q) <= score(&base, nil, nil, q) {
		t.Error("score not decreasing in entity total")
	}
}

func TestScoreHandlesMissingProducer(t *testing.T) {
	sig := Signature{Pl: 0.3, Ps: 0.2, Prod: []Coord{{0, 1}}, ProdTotal: 1,
		Ent: []Coord{{0, 1}}, EntTotal: 1}
	sig.stampLogs()
	q := &Query{ProdIdx: -1, BgProd: 0.02, Ents: nil, BgEnt: 0.01, Mu: 10, LambdaS: 0.4}
	s := score(&sig, nil, nil, q)
	if math.IsInf(s, 0) || math.IsNaN(s) {
		t.Fatalf("score = %v", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Signature{Prod: []Coord{{0, 1}, {1, 2}}, Ent: []Coord{{0, 3}}}
	c := s.Clone()
	c.Prod[0].Val = 99
	c.Ent[0].Val = 99
	if s.Prod[0].Val == 99 || s.Ent[0].Val == 99 {
		t.Fatal("Clone shares storage")
	}
}

// Property: for random trees and queries, Search == SequentialScan for
// random k. This is the no-false-pruning guarantee end to end.
func TestSearchEquivalenceProperty(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw%20) + 1
		n := int(nRaw%100) + 5
		rng := rand.New(rand.NewSource(seed))
		prod := NewUniverse(nil, []string{"p0", "p1", "p2", "p3"})
		ent := NewUniverse(nil, []string{"e0", "e1", "e2", "e3", "e4", "e5"})
		tr := New(0, "c", prod, ent, 4)
		for i := 0; i < n; i++ {
			tr.Insert(fmt.Sprintf("u%03d", i), randomSignature(4, 6, rng))
		}
		q := randomQuery(4, 6, rng)
		tqs := []TreeQuery{{Tree: tr, Query: q}}
		got, _ := Search(tqs, k)
		want := SequentialScan(tqs, k)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: domination invariant holds after any interleaving of inserts
// and updates.
func TestDominationProperty(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		prod := NewUniverse(nil, []string{"p0", "p1"})
		ent := NewUniverse(nil, []string{"e0", "e1", "e2"})
		tr := New(0, "c", prod, ent, 3)
		users := 0
		for _, op := range ops {
			if op%3 == 0 && users > 0 {
				sig := randomSignature(2, 3, rng)
				tr.UpdateCopy(fmt.Sprintf("u%d", int(op)%users), &sig)
			} else {
				tr.Insert(fmt.Sprintf("u%d", users), randomSignature(2, 3, rng))
				users++
			}
		}
		ok := true
		var walk func(n *node)
		walk = func(n *node) {
			var kids []*Signature
			if n.leaf {
				for _, e := range n.entries {
					kids = append(kids, &e.Sig)
				}
			} else {
				for _, c := range n.children {
					walk(c)
					kids = append(kids, &c.sig)
				}
			}
			for _, k := range kids {
				if k.Pl > n.sig.Pl+1e-12 || k.ProdTotal < n.sig.ProdTotal-1e-12 {
					ok = false
				}
			}
		}
		walk(tr.root)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSearch(b *testing.B) {
	tr, rng := buildTree(b, 2000, 8, 11)
	q := randomQuery(4, 6, rng)
	tqs := []TreeQuery{{Tree: tr, Query: q}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Search(tqs, 30)
	}
}

func BenchmarkSequentialScan(b *testing.B) {
	tr, rng := buildTree(b, 2000, 8, 11)
	q := randomQuery(4, 6, rng)
	tqs := []TreeQuery{{Tree: tr, Query: q}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SequentialScan(tqs, 30)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	prod := NewUniverse(nil, []string{"p0", "p1", "p2", "p3"})
	ent := NewUniverse(nil, []string{"e0", "e1", "e2", "e3", "e4", "e5"})
	tr := New(0, "c", prod, ent, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(fmt.Sprintf("u%d", i), randomSignature(4, 6, rng))
	}
}

func TestDeleteRemovesUser(t *testing.T) {
	tr, rng := buildTree(t, 60, 4, 21)
	if !tr.Delete("u010") {
		t.Fatal("Delete returned false for existing user")
	}
	if tr.Has("u010") || tr.Len() != 59 {
		t.Fatalf("user still present after delete: len=%d", tr.Len())
	}
	if tr.Delete("u010") {
		t.Fatal("double delete returned true")
	}
	if tr.Delete("ghost") {
		t.Fatal("deleting ghost returned true")
	}
	// Invariants hold and search still matches scan.
	checkDomination(t, tr.root)
	q := randomQuery(4, 6, rng)
	tqs := []TreeQuery{{Tree: tr, Query: q}}
	got, _ := Search(tqs, 10)
	want := SequentialScan(tqs, 10)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-delete mismatch:\n got %v\nwant %v", got, want)
	}
	for _, r := range got {
		if r.UserID == "u010" {
			t.Fatal("deleted user still returned")
		}
	}
}

func TestDeleteAllUsers(t *testing.T) {
	tr, rng := buildTree(t, 25, 4, 22)
	for _, u := range tr.Users() {
		if !tr.Delete(u) {
			t.Fatalf("Delete(%s) failed", u)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d after deleting all", tr.Len())
	}
	q := randomQuery(4, 6, rng)
	got, _ := Search([]TreeQuery{{Tree: tr, Query: q}}, 5)
	if len(got) != 0 {
		t.Fatalf("results from emptied tree: %v", got)
	}
	// Tree remains usable.
	tr.Insert("reborn", randomSignature(4, 6, rng))
	if tr.Len() != 1 {
		t.Fatal("insert after full delete failed")
	}
}
