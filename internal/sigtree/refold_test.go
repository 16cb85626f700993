package sigtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specialValue occasionally swaps v for one of the values whose fold
// behaviour depends on the comparison form (NaN never wins a > or <, −0
// ties +0), so the field-wise refold is held to the full fold on them too.
func specialValue(v float64, rng *rand.Rand) float64 {
	switch rng.Intn(40) {
	case 0:
		return math.NaN()
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0
	}
	return v
}

// sparseSignature builds a leaf signature of the given widths with about
// nzProd/nzEnt non-zero coordinates — the shape of real leaves, whose
// dense vectors are mostly zero.
func sparseSignature(nProd, nEnt, nzProd, nzEnt int, rng *rand.Rand) Signature {
	s := Signature{
		Pl:         specialValue(rng.Float64(), rng),
		Ps:         specialValue(rng.Float64(), rng),
		ProdCounts: make([]float64, nProd),
		EntCounts:  make([]float64, nEnt),
	}
	for range nzProd {
		if nProd > 0 {
			s.ProdCounts[rng.Intn(nProd)] = specialValue(float64(1+rng.Intn(6)), rng)
		}
	}
	for range nzEnt {
		if nEnt > 0 {
			s.EntCounts[rng.Intn(nEnt)] = specialValue(float64(1+rng.Intn(6)), rng)
		}
	}
	s.ProdTotal = specialValue(float64(rng.Intn(8)), rng)
	s.EntTotal = specialValue(float64(rng.Intn(8)), rng)
	return s
}

// perturb returns a copy of sig with a few fields changed, as one
// observation changes a leaf: sometimes nothing but Pl/Ps, sometimes a
// count or two, sometimes the vectors grow.
func perturb(sig Signature, nProd, nEnt int, rng *rand.Rand) Signature {
	c := sig.Clone()
	c.ProdCounts = growTo(c.ProdCounts, nProd)
	c.EntCounts = growTo(c.EntCounts, nEnt)
	for range rng.Intn(3) {
		c.ProdCounts[rng.Intn(len(c.ProdCounts))] = specialValue(float64(rng.Intn(7)), rng)
	}
	for range rng.Intn(3) {
		c.EntCounts[rng.Intn(len(c.EntCounts))] = specialValue(float64(rng.Intn(7)), rng)
	}
	if rng.Intn(2) == 0 {
		c.ProdTotal = specialValue(c.ProdTotal+1, rng)
	}
	if rng.Intn(2) == 0 {
		c.EntTotal = specialValue(c.EntTotal+1, rng)
	}
	c.Pl = specialValue(rng.Float64(), rng)
	return c
}

// sameBits reports whether a and b are bit-identical, reading a
// coordinate past either's end as +0.
func sameBits(a, b []float64) bool {
	for i := range max(len(a), len(b)) {
		var x, y float64
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if math.Float64bits(x) != math.Float64bits(y) {
			return false
		}
	}
	return true
}

// checkAggregatesExact holds every node's aggregate to a from-scratch
// recomputeSig fold over its kids, bit for bit on every field and count
// coordinate, modulo trailing zeros, and checks it is at least as wide as
// each kid. Kids are checked first, so by induction every aggregate
// equals a full rebuild of the tree's folds.
func checkAggregatesExact(t *testing.T, n *node, step string) {
	t.Helper()
	if !n.leaf {
		for _, c := range n.children {
			checkAggregatesExact(t, c, step)
		}
	}
	// refoldPath indexes an aggregate at any coordinate of any kid, so
	// no aggregate may be shorter than one of its kids' vectors.
	for i := range n.kids() {
		k := n.kidSig(i)
		if len(k.ProdCounts) > len(n.sig.ProdCounts) || len(k.EntCounts) > len(n.sig.EntCounts) {
			t.Fatalf("%s: aggregate %d/%d wide, a kid %d/%d", step, len(n.sig.ProdCounts),
				len(n.sig.EntCounts), len(k.ProdCounts), len(k.EntCounts))
		}
	}
	want := *n
	want.sig = Signature{}
	want.recomputeSig()
	got, w := &n.sig, &want.sig
	if math.Float64bits(got.Pl) != math.Float64bits(w.Pl) ||
		math.Float64bits(got.Ps) != math.Float64bits(w.Ps) ||
		math.Float64bits(got.ProdTotal) != math.Float64bits(w.ProdTotal) ||
		math.Float64bits(got.EntTotal) != math.Float64bits(w.EntTotal) {
		t.Fatalf("%s: scalars %v/%v/%v/%v, full fold %v/%v/%v/%v", step,
			got.Pl, got.Ps, got.ProdTotal, got.EntTotal, w.Pl, w.Ps, w.ProdTotal, w.EntTotal)
	}
	if !sameBits(got.ProdCounts, w.ProdCounts) {
		t.Fatalf("%s: producer counts %v, full fold %v", step, got.ProdCounts, w.ProdCounts)
	}
	if !sameBits(got.EntCounts, w.EntCounts) {
		t.Fatalf("%s: entity counts %v, full fold %v", step, got.EntCounts, w.EntCounts)
	}
}

// TestFieldwiseRefoldMatchesFullFold drives random interleavings of every
// write entry point — with universes that keep growing, so later
// signatures are longer than earlier ones — and checks after each one
// that the incrementally maintained aggregates equal a full refold.
func TestFieldwiseRefoldMatchesFullFold(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New(0, "c", NewUniverse(nil), NewUniverse(nil), 2+int(seed%4))
		nProd, nEnt := 3, 2
		var users []string
		scratch := Signature{}
		for op := range 400 {
			if rng.Intn(10) == 0 {
				nProd += 1 + rng.Intn(3)
			}
			if rng.Intn(12) == 0 {
				nEnt++
			}
			var step string
			switch k := rng.Intn(10); {
			case len(users) == 0 || k < 2:
				id := fmt.Sprintf("u%d", op)
				tr.Insert(id, sparseSignature(nProd, nEnt, 3, 3, rng))
				users = append(users, id)
				step = "Insert " + id
			case k < 4:
				id := users[rng.Intn(len(users))]
				cur, _ := tr.Get(id)
				tr.Update(id, perturb(cur, nProd, nEnt, rng))
				step = "Update " + id
			case k < 7:
				id := users[rng.Intn(len(users))]
				cur, _ := tr.Get(id)
				next := perturb(cur, nProd, nEnt, rng)
				// Copy through a reused buffer, as cppse's pooled refresh does.
				scratch.Pl, scratch.Ps = next.Pl, next.Ps
				scratch.ProdTotal, scratch.EntTotal = next.ProdTotal, next.EntTotal
				scratch.ProdCounts = append(scratch.ProdCounts[:0], next.ProdCounts...)
				scratch.EntCounts = append(scratch.EntCounts[:0], next.EntCounts...)
				tr.UpdateCopy(id, &scratch)
				step = "UpdateCopy " + id
			case k < 9:
				id := users[rng.Intn(len(users))]
				cur, _ := tr.Get(id)
				pl, ps := specialValue(rng.Float64(), rng), specialValue(rng.Float64(), rng)
				if rng.Intn(4) == 0 {
					pl, ps = cur.Pl, cur.Ps // an idempotent restamp
				}
				tr.UpdateProbs(id, pl, ps)
				step = "UpdateProbs " + id
			default:
				i := rng.Intn(len(users))
				tr.Delete(users[i])
				step = "Delete " + users[i]
				users = append(users[:i], users[i+1:]...)
			}
			checkAggregatesExact(t, tr.root, fmt.Sprintf("seed %d op %d %s", seed, op, step))
		}
	}
}

// TestDeleteClearsVacatedSlot: removing a leaf node's last entry must not
// leave the slot past len pointing at it (and its dense vectors).
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
	if slot := n.entries[:len(n.entries)+1][len(n.entries)]; slot != nil {
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
			Pl:         0.05 + 0.9*rng.Float64(),
			Ps:         0.05 + 0.9*rng.Float64(),
			ProdCounts: make([]float64, nProd),
			EntCounts:  make([]float64, nEnt),
		}
		for range 6 {
			c := float64(1 + rng.Intn(5))
			s.ProdCounts[rng.Intn(nProd)] += c
			s.ProdTotal += c
		}
		for range 9 {
			c := float64(1 + rng.Intn(3))
			s.EntCounts[rng.Intn(nEnt)] += c
			s.EntTotal += c
		}
		tr.Insert(users[i], s)
	}
	return tr, users, rng
}

// observeInto writes into dst the signature user has after one more
// observation: one producer and one entity count up, totals with them,
// fresh Pl/Ps — what a dirty-category leaf rebuild hands UpdateCopy.
func observeInto(dst *Signature, tr *Tree, user string, rng *rand.Rand) {
	cur, _ := tr.Get(user)
	dst.ProdCounts = append(dst.ProdCounts[:0], cur.ProdCounts...)
	dst.EntCounts = append(dst.EntCounts[:0], cur.EntCounts...)
	dst.ProdCounts[rng.Intn(len(dst.ProdCounts))]++
	dst.EntCounts[rng.Intn(len(dst.EntCounts))]++
	dst.ProdTotal, dst.EntTotal = cur.ProdTotal+1, cur.EntTotal+1
	dst.Pl, dst.Ps = 0.05+0.9*rng.Float64(), 0.05+0.9*rng.Float64()
}

// TestRefoldZeroAlloc: once the tree's buffers are warm, neither write
// entry point of a refresh allocates.
func TestRefoldZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tr, users, rng := ytubeShapeTree(t)
	var sig Signature
	for _, u := range users { // warm the coordinate scratch
		observeInto(&sig, tr, u, rng)
		tr.UpdateCopy(u, &sig)
	}
	i := 0
	copyAllocs := testing.AllocsPerRun(200, func() {
		u := users[i%len(users)]
		i++
		observeInto(&sig, tr, u, rng)
		tr.UpdateCopy(u, &sig)
	})
	probsAllocs := testing.AllocsPerRun(200, func() {
		i++
		tr.UpdateProbs(users[i%len(users)], rng.Float64(), rng.Float64())
	})
	if copyAllocs != 0 || probsAllocs != 0 {
		t.Fatalf("UpdateCopy %.1f allocs/op, UpdateProbs %.1f allocs/op, want 0", copyAllocs, probsAllocs)
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
// observation at the ytube-10k shape (building the next signature is
// part of the loop; it is a ~660-word copy).
func BenchmarkUpdateCopy(b *testing.B) {
	tr, users, rng := ytubeShapeTree(b)
	var sig Signature
	for _, u := range users {
		observeInto(&sig, tr, u, rng)
		tr.UpdateCopy(u, &sig)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := users[i%len(users)]
		observeInto(&sig, tr, u, rng)
		tr.UpdateCopy(u, &sig)
	}
}
