package sigtree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// checkAggregatesExact holds every node's aggregate to a from-scratch
// recomputeSig fold over its kids, bit for bit on every field and listed
// coordinate. Kids are checked first, so by induction every aggregate
// equals a full rebuild of the tree's folds.
func checkAggregatesExact(t testing.TB, tr *Tree, n *node, step string) {
	t.Helper()
	if !n.leaf {
		for _, c := range n.children {
			checkAggregatesExact(t, tr, c, step)
		}
	}
	want := *n
	want.sig = Signature{}
	tr.recomputeSig(&want)
	got, w := &n.sig, &want.sig
	if !sameScalars(got, w) {
		t.Fatalf("%s: scalars %v/%v/%v/%v, full fold %v/%v/%v/%v", step,
			got.Pl, got.Ps, got.ProdTotal, got.EntTotal, w.Pl, w.Ps, w.ProdTotal, w.EntTotal)
	}
	if !sameCoords(got.Prod, w.Prod) {
		t.Fatalf("%s: producer counts %v, full fold %v", step, got.Prod, w.Prod)
	}
	if !sameCoords(got.Ent, w.Ent) {
		t.Fatalf("%s: entity counts %v, full fold %v", step, got.Ent, w.Ent)
	}
}

// TestFieldwiseRefoldMatchesFullFold drives random interleavings of every
// write entry point — with universes that keep growing, and with NaN and
// ±0 mixed into the values — and checks after each one that the
// incrementally maintained aggregates equal a full refold and a dense
// reference fold of the leaves.
func TestFieldwiseRefoldMatchesFullFold(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		d := newOpRunner(rand.New(rand.NewSource(seed)), true, 2+int(seed%4))
		for op := range 400 {
			step := fmt.Sprintf("seed %d op %d %s", seed, op, d.step())
			checkAggregatesExact(t, d.tr, d.tr.root, step)
			checkDenseReference(t, d, step)
		}
	}
}

// TestInsertWideningMatchesFullFold drives insert-only sequences at small
// fanouts, so splits are frequent and every level of a path widens, with
// NaN and ±0 common in Pl/Ps, the totals and the counts. After every
// Insert each vector must mirror its list and each aggregate must equal a
// full refold: where a new value ties the aggregate at ±0, folding the
// new kid alone can disagree with the fold in kid order, and only the
// refold fallback of deltaWalk keeps the two equal.
func TestInsertWideningMatchesFullFold(t *testing.T) {
	special := []float64{math.NaN(), math.Copysign(0, -1), 0}
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(v float64) float64 {
			if k := rng.Intn(6); k < len(special) {
				return special[k]
			}
			return v
		}
		tr := New(0, "c", NewUniverse(nil), NewUniverse(nil), 2+int(seed%3))
		var vecs func(n *node, step string)
		vecs = func(n *node, step string) {
			checkVec(t, n, false, step)
			checkVec(t, n, true, step)
			for _, c := range n.children {
				vecs(c, step)
			}
		}
		for i := range 300 {
			prod, ent := make([]float64, 12), make([]float64, 6)
			for range 3 {
				prod[rng.Intn(len(prod))] = pick(float64(1 + rng.Intn(3)))
				ent[rng.Intn(len(ent))] = pick(float64(1 + rng.Intn(3)))
			}
			tr.Insert(fmt.Sprintf("u%d", i), Signature{
				Pl:        pick(float64(rng.Intn(3)) / 2),
				Ps:        pick(float64(rng.Intn(3)) / 2),
				ProdTotal: pick(float64(rng.Intn(3))),
				EntTotal:  pick(float64(rng.Intn(3))),
				Prod:      fromDense(prod),
				Ent:       fromDense(ent),
			})
			step := fmt.Sprintf("seed %d insert %d", seed, i)
			vecs(tr.root, step)
			checkAggregatesExact(t, tr, tr.root, step)
		}
	}
}

// TestHolderMovesInwardAtEveryLevel writes a champion user that holds,
// alone, the extremum of every carried field at every level — the only
// listed count at one producer, the greatest Pl and the least totals —
// and then moves each of those values inward: the count falls to +0 (left
// unlisted, listed as −0, or NaN), Pl falls, and the totals rise, past
// other kids whose totals tie at ±0. Every level's fold must then be
// refolded over its kids, and the producer must leave every list on the
// path; after each write, UpdateProbs and the champion's restoration, the
// aggregates equal a full refold.
func TestHolderMovesInwardAtEveryLevel(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const solo = 7 // the producer only the champion lists
	champion := Signature{Pl: 0.9, Ps: 0.9, ProdTotal: -2, EntTotal: -2,
		Prod: []Coord{{Idx: 1, Val: 3}, {Idx: solo, Val: 5}}, Ent: []Coord{{Idx: 0, Val: 4}}}
	for _, tc := range []struct {
		name                 string
		count, pl, total     float64
		listed, viaProbsOnly bool
	}{
		{name: "count unlisted", count: 0, pl: 0.1, total: 10},
		{name: "count listed as −0", count: negZero, pl: negZero, total: negZero, listed: true},
		{name: "count listed as +0", count: 0, pl: 0, total: 0, listed: true},
		{name: "NaN", count: math.NaN(), pl: math.NaN(), total: math.NaN(), listed: true},
		{name: "Pl only, through UpdateProbs", pl: 0.1, viaProbsOnly: true},
	} {
		tr := New(0, "c", NewUniverse(nil), NewUniverse(nil), 2)
		for i := range 24 {
			// Half the totals are +0 and half −0, so a total that rises
			// from the champion's −2 ties the rest at ±0 at every level.
			total := 0.0
			if i%2 == 1 {
				total = negZero
			}
			tr.Insert(fmt.Sprintf("u%02d", i), Signature{Pl: 0.2, Ps: 0.3, ProdTotal: total, EntTotal: total,
				Prod: []Coord{{Idx: int32(i % 5), Val: 1}}, Ent: []Coord{{Idx: 0, Val: 1}}})
			if i == 11 {
				tr.Insert("champion", champion.Clone())
			}
		}
		checkAggregatesExact(t, tr, tr.root, tc.name+": built")
		if tr.Depth() < 4 || at(tr.root.sig.Prod, solo) != 5 || tr.root.sig.Pl != 0.9 || tr.root.sig.ProdTotal != -2 {
			t.Fatalf("%s: the champion does not hold the root's folds (depth %d, root %v)", tc.name, tr.Depth(), tr.root.sig)
		}
		if tc.viaProbsOnly {
			tr.UpdateProbs("champion", tc.pl, champion.Ps)
		} else {
			next := champion.Clone()
			next.Pl, next.ProdTotal, next.EntTotal = tc.pl, tc.total, tc.total
			next.Prod = next.Prod[:1]
			if tc.listed {
				next.Prod = append(next.Prod, Coord{Idx: solo, Val: tc.count})
			}
			tr.UpdateCopy("champion", &next)
		}
		step := tc.name + ": moved inward"
		checkAggregatesExact(t, tr, tr.root, step)
		checkSlots(t, tr, step)
		for n, _ := tr.entry("champion"); n != nil; n = n.parent {
			checkVec(t, n, false, step)
			if !tc.viaProbsOnly && slices.ContainsFunc(n.sig.Prod, func(c Coord) bool { return c.Idx == solo }) {
				t.Fatalf("%s: producer %d still listed in %v", step, solo, n.sig.Prod)
			}
			if n.sig.Pl == 0.9 {
				t.Fatalf("%s: Pl stayed 0.9 at a level of the champion's path", step)
			}
		}
		tr.UpdateCopy("champion", &champion)
		checkAggregatesExact(t, tr, tr.root, tc.name+": restored")
		if at(tr.root.sig.Prod, solo) != 5 || tr.root.sig.Pl != 0.9 {
			t.Fatalf("%s: restoring the champion left the root at %v", tc.name, tr.root.sig)
		}
	}
}

// TestDeleteClearsVacatedSlot: removing a leaf node's last entry must not
// leave the slot past len pointing at it (and its signature).
func TestDeleteClearsVacatedSlot(t *testing.T) {
	tr, _ := buildTree(t, 40, 4, 23)
	var n *node
	var walk func(*node)
	walk = func(c *node) {
		if c.leaf {
			if n == nil && len(c.entries) >= 2 {
				n = c
			}
			return
		}
		for _, k := range c.children {
			walk(k)
		}
	}
	walk(tr.root)
	if n == nil {
		t.Fatal("no leaf node with two entries")
	}
	last := n.entries[len(n.entries)-1]
	if !tr.Delete(last.UserID) {
		t.Fatalf("Delete(%s) failed", last.UserID)
	}
	if slot := n.entries[:len(n.entries)+1][len(n.entries)]; slot.UserID != "" || slot.Sig.Prod != nil || slot.Sig.Ent != nil {
		t.Fatalf("vacated slot still references %s", slot.UserID)
	}
}

// ytubeShapeTree builds a tree at the ytube-10k leaf shape: about 600
// users at fanout 8 over a 582-wide producer and 80-wide entity universe,
// each leaf holding about 6 non-zero producers and 9 non-zero entities.
func ytubeShapeTree(tb testing.TB) (*Tree, []string, *rand.Rand) {
	tb.Helper()
	const nUsers, nProd, nEnt = 600, 582, 80
	rng := rand.New(rand.NewSource(31))
	prod, ent := NewUniverse(nil), NewUniverse(nil)
	for i := range nProd {
		prod.Add(fmt.Sprintf("p%d", i))
	}
	for i := range nEnt {
		ent.Add(fmt.Sprintf("e%d", i))
	}
	tr := New(0, "c", prod, ent, 8)
	users := make([]string, nUsers)
	for i := range users {
		users[i] = fmt.Sprintf("u%03d", i)
		s := Signature{
			Pl: 0.05 + 0.9*rng.Float64(),
			Ps: 0.05 + 0.9*rng.Float64(),
		}
		pc, ec := make([]float64, nProd), make([]float64, nEnt)
		for range 6 {
			c := float64(1 + rng.Intn(5))
			pc[rng.Intn(nProd)] += c
			s.ProdTotal += c
		}
		for range 9 {
			c := float64(1 + rng.Intn(3))
			ec[rng.Intn(nEnt)] += c
			s.EntTotal += c
		}
		s.Prod, s.Ent = fromDense(pc), fromDense(ec)
		tr.Insert(users[i], s)
	}
	return tr, users, rng
}

// observeInto writes into dst the signature user has after one more
// observation: one producer and one entity count up, totals with them,
// fresh Pl/Ps — what a dirty-category leaf rebuild hands UpdateCopy. With
// anew, the counts raised are at random coordinates of the universes, so
// at the ytube shape the producer is nearly always a first sighting that
// lists one more coordinate in the leaf (and often in its aggregates);
// otherwise they are counts the user already lists. dst's lists must have
// room for the whole universes (observationBuffer), so building it never
// allocates.
func observeInto(dst *Signature, tr *Tree, user string, rng *rand.Rand, anew bool) {
	n, i := tr.entry(user)
	cur := n.entries[i].Sig
	dst.Prod = append(dst.Prod[:0], cur.Prod...)
	dst.Ent = append(dst.Ent[:0], cur.Ent...)
	if anew {
		dst.Prod = bump(dst.Prod, int32(rng.Intn(tr.Prod.Len())))
		dst.Ent = bump(dst.Ent, int32(rng.Intn(tr.Ent.Len())))
	} else {
		dst.Prod[rng.Intn(len(dst.Prod))].Val++
		dst.Ent[rng.Intn(len(dst.Ent))].Val++
	}
	dst.ProdTotal, dst.EntTotal = cur.ProdTotal+1, cur.EntTotal+1
	dst.Pl, dst.Ps = 0.05+0.9*rng.Float64(), 0.05+0.9*rng.Float64()
}

// bump adds one to the count list cs holds at idx, listing idx if needed.
func bump(cs []Coord, idx int32) []Coord {
	i := seekIdx(cs, idx)
	if i < len(cs) && cs[i].Idx == idx {
		cs[i].Val++
		return cs
	}
	return slices.Insert(cs, i, Coord{Idx: idx, Val: 1})
}

// observationBuffer returns a signature whose lists can hold tr's whole
// universes, for observeInto.
func observationBuffer(tr *Tree) Signature {
	return Signature{Prod: make([]Coord, 0, tr.Prod.Len()), Ent: make([]Coord, 0, tr.Ent.Len())}
}

// firstSightingWrites bounds the allocations of writes that list new
// counts. Such a write lengthens the leaf node's slab and may lengthen an
// aggregate's lists and vectors at every level; each of these grows
// geometrically (append's growth, growTo's quarter), so it reallocates
// about once per as many listings as it is long. At the ytube shape the
// shortest of them, a leaf node's producer aggregate, lists about 27
// coordinates, and 1 200 such writes measure 110 allocations, about one
// per 11 writes. A list that reallocated at every listing would cost at
// least one per write; the gate allows one per 4.
const firstSightingWrites, firstSightingAllocs = 1200, 1200 / 4

// TestRefoldZeroAlloc: once the tree's buffers are warm, neither write
// entry point of a refresh allocates while the lists keep their lengths,
// and writes that list new counts allocate only as their lists outgrow
// their room (see firstSightingWrites).
func TestRefoldZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tr, users, rng := ytubeShapeTree(t)
	sig := observationBuffer(tr)
	for _, u := range users { // warm the coordinate scratch
		observeInto(&sig, tr, u, rng, true)
		tr.UpdateCopy(u, &sig)
	}
	i := 0
	copyAllocs := testing.AllocsPerRun(200, func() {
		u := users[i%len(users)]
		i++
		observeInto(&sig, tr, u, rng, false)
		tr.UpdateCopy(u, &sig)
	})
	probsAllocs := testing.AllocsPerRun(200, func() {
		i++
		tr.UpdateProbs(users[i%len(users)], rng.Float64(), rng.Float64())
	})
	if copyAllocs != 0 || probsAllocs != 0 {
		t.Fatalf("UpdateCopy %.1f allocs/op, UpdateProbs %.1f allocs/op, want 0", copyAllocs, probsAllocs)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range firstSightingWrites {
		u := users[i%len(users)]
		i++
		observeInto(&sig, tr, u, rng, true)
		tr.UpdateCopy(u, &sig)
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > firstSightingAllocs {
		t.Fatalf("%d writes listing new counts made %d allocations, want at most %d",
			firstSightingWrites, got, firstSightingAllocs)
	}
}

// BenchmarkUpdateProbs prices the non-dirty-category restamp of one leaf
// at the ytube-10k shape.
func BenchmarkUpdateProbs(b *testing.B) {
	tr, users, rng := ytubeShapeTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.UpdateProbs(users[i%len(users)], 0.05+0.9*rng.Float64(), 0.05+0.9*rng.Float64())
	}
}

// BenchmarkUpdateCopy prices the dirty-category leaf rebuild of one
// observation that raises counts the user already lists, at the ytube-10k
// shape (building the next signature is part of the loop; it copies the
// user's ~15 listed counts). Raising listed counts keeps the lists'
// lengths, so the loop prices a steady state rather than lists that grow
// with b.N.
func BenchmarkUpdateCopy(b *testing.B) {
	tr, users, rng := ytubeShapeTree(b)
	sig := observationBuffer(tr)
	for _, u := range users {
		observeInto(&sig, tr, u, rng, false)
		tr.UpdateCopy(u, &sig)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := users[i%len(users)]
		observeInto(&sig, tr, u, rng, false)
		tr.UpdateCopy(u, &sig)
	}
}
