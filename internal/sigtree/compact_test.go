package sigtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ssrec/internal/model"
)

// This file holds the compact signatures to the dense encoding they
// replaced: a dense-vector reference of the aggregate folds and of score,
// and a write-sequence runner shared by the seeded property tests and
// FuzzCompactSignature.

// fromDense lists every coordinate of v that is not +0 — the sparse form
// of a dense count vector.
func fromDense(v []float64) []Coord {
	var cs []Coord
	for i, x := range v {
		if math.Float64bits(x) != 0 {
			cs = append(cs, Coord{Idx: int32(i), Val: x})
		}
	}
	return cs
}

// toDense expands cs over an n-wide universe.
func toDense(cs []Coord, n int) []float64 {
	v := make([]float64, n)
	for _, c := range cs {
		v[c.Idx] = c.Val
	}
	return v
}

func sameScalars(a, b *Signature) bool {
	return math.Float64bits(a.Pl) == math.Float64bits(b.Pl) &&
		math.Float64bits(a.Ps) == math.Float64bits(b.Ps) &&
		math.Float64bits(a.ProdTotal) == math.Float64bits(b.ProdTotal) &&
		math.Float64bits(a.EntTotal) == math.Float64bits(b.EntTotal)
}

func sameCoords(a, b []Coord) bool { return slices.EqualFunc(a, b, sameCoord) }

// denseSig is a signature in the dense encoding.
type denseSig struct {
	pl, ps, prodTotal, entTotal float64
	prod, ent                   []float64
}

// denseFold folds the dense expansions of every leaf under n in
// depth-first order: Pl/Ps maxima from 0 and total minima from +Inf as
// foldScalars takes them, and at every coordinate the count maximum from
// +0 — the aggregate a dense encoding holds, computed without the tree's
// own folds. leaves caches the expansions across the nodes of one check.
func denseFold(n *node, nProd, nEnt int, leaves map[*LeafEntry]denseSig) denseSig {
	d := denseSig{prodTotal: math.Inf(1), entTotal: math.Inf(1),
		prod: make([]float64, nProd), ent: make([]float64, nEnt)}
	var walk func(*node)
	walk = func(n *node) {
		for _, c := range n.children {
			walk(c)
		}
		for i := range n.entries {
			e := &n.entries[i]
			l, ok := leaves[e]
			if !ok {
				l = denseSig{pl: e.Sig.Pl, ps: e.Sig.Ps, prodTotal: e.Sig.ProdTotal, entTotal: e.Sig.EntTotal,
					prod: toDense(e.Sig.Prod, nProd), ent: toDense(e.Sig.Ent, nEnt)}
				leaves[e] = l
			}
			d.pl, d.ps = widenMax(d.pl, l.pl), widenMax(d.ps, l.ps)
			d.prodTotal = narrowMin(d.prodTotal, l.prodTotal)
			d.entTotal = narrowMin(d.entTotal, l.entTotal)
			for i, v := range l.prod {
				d.prod[i] = widenMax(d.prod[i], v)
			}
			for i, v := range l.ent {
				d.ent[i] = widenMax(d.ent[i], v)
			}
		}
	}
	walk(n)
	return d
}

// denseScore is score in the dense encoding: a direct read at the
// producer index, every entity term added, four logarithms.
func denseScore(d denseSig, q *Query) float64 {
	var prodCount float64
	if q.ProdIdx >= 0 && q.ProdIdx < len(d.prod) {
		prodCount = d.prod[q.ProdIdx]
	}
	prodTerm := (prodCount + q.Mu*q.BgProd) / (d.prodTotal + q.Mu)
	var entDot float64
	for _, we := range q.Ents {
		if we.Idx >= 0 && we.Idx < len(d.ent) {
			entDot += we.W * d.ent[we.Idx]
		}
	}
	entTerm := (entDot + q.Mu*q.BgEnt) / (d.entTotal + q.Mu)
	longTerm := safeLog(d.pl) + safeLog(prodTerm) + safeLog(entTerm)
	return (1-q.LambdaS)*longTerm + q.LambdaS*safeLog(d.ps)
}

// denseExpansionCost is expansionCost in the dense encoding: every
// coordinate of the universe visited in index order.
func denseExpansionCost(agg denseSig, sig *Signature) float64 {
	var cost float64
	for _, pair := range [][2][]float64{{agg.prod, toDense(sig.Prod, len(agg.prod))}, {agg.ent, toDense(sig.Ent, len(agg.ent))}} {
		for i, v := range pair[1] {
			if cur := pair[0][i]; v > cur {
				cost += v - cur
			}
		}
	}
	if sig.Pl > agg.pl {
		cost += 50 * (sig.Pl - agg.pl)
	}
	if sig.Ps > agg.ps {
		cost += 50 * (sig.Ps - agg.ps)
	}
	if sig.ProdTotal < agg.prodTotal {
		cost += agg.prodTotal - sig.ProdTotal
	}
	if sig.EntTotal < agg.entTotal {
		cost += agg.entTotal - sig.EntTotal
	}
	return cost
}

// checkList holds a stored list to the compact form: strictly ascending
// indices inside the universe, and for an aggregate no +0 or −0 listed.
func checkList(t testing.TB, cs []Coord, width int, agg bool, what string) {
	for i, c := range cs {
		if c.Idx < 0 || int(c.Idx) >= width || (i > 0 && c.Idx <= cs[i-1].Idx) {
			t.Fatalf("%s: list %v not ascending inside a %d-wide universe", what, cs, width)
		}
		if agg && (c.Val == 0 || math.IsNaN(c.Val)) {
			t.Fatalf("%s: aggregate lists %v at %d", what, c.Val, c.Idx)
		}
	}
}

// checkDenseReference holds every node of d's tree to the dense encoding:
// its aggregate equals denseFold of its leaves at every universe
// coordinate, bit for bit; so does the expansion cost of a probe
// signature, which steers Insert; the cached logarithms of every
// aggregate and leaf are current; entry counts match; and each leaf
// node's entry lists lie back to back in its slab.
func checkDenseReference(t testing.TB, d *opRunner, step string) {
	t.Helper()
	probe := d.signature()
	leaves := make(map[*LeafEntry]denseSig, d.tr.Len())
	var walk func(n *node) int
	walk = func(n *node) int {
		size := len(n.entries)
		for _, c := range n.children {
			if c.parent != n {
				t.Fatalf("%s: broken parent link", step)
			}
			size += walk(c)
		}
		if n.size != size {
			t.Fatalf("%s: node counts %d entries, holds %d", step, n.size, size)
		}
		want := denseFold(n, d.nProd, d.nEnt, leaves)
		got := &n.sig
		checkList(t, got.Prod, d.nProd, true, step)
		checkList(t, got.Ent, d.nEnt, true, step)
		ref := Signature{Pl: want.pl, Ps: want.ps, ProdTotal: want.prodTotal, EntTotal: want.entTotal}
		if !sameScalars(got, &ref) {
			t.Fatalf("%s: scalars %v/%v/%v/%v, dense fold %v/%v/%v/%v", step,
				got.Pl, got.Ps, got.ProdTotal, got.EntTotal, ref.Pl, ref.Ps, ref.ProdTotal, ref.EntTotal)
		}
		for i, v := range toDense(got.Prod, d.nProd) {
			if math.Float64bits(v) != math.Float64bits(want.prod[i]) {
				t.Fatalf("%s: producer %d aggregate %v, dense fold %v", step, i, v, want.prod[i])
			}
		}
		for i, v := range toDense(got.Ent, d.nEnt) {
			if math.Float64bits(v) != math.Float64bits(want.ent[i]) {
				t.Fatalf("%s: entity %d aggregate %v, dense fold %v", step, i, v, want.ent[i])
			}
		}
		if a, b := expansionCost(n, &probe), denseExpansionCost(want, &probe); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: expansion cost %v, dense %v", step, a, b)
		}
		checkLogs(t, got, step)
		checkVec(t, n, false, step)
		checkVec(t, n, true, step)
		off := 0
		for _, e := range n.entries {
			checkLogs(t, &e.Sig, step)
			checkList(t, e.Sig.Prod, d.nProd, false, step)
			checkList(t, e.Sig.Ent, d.nEnt, false, step)
			for _, l := range [][]Coord{e.Sig.Prod, e.Sig.Ent} {
				if len(l) > 0 && &l[0] != &n.slab[off] {
					t.Fatalf("%s: %s's lists are not packed in the leaf slab", step, e.UserID)
				}
				off += len(l)
			}
		}
		return size
	}
	if walk(d.tr.root) != d.tr.Len() {
		t.Fatalf("%s: tree holds %d users, Len says %d", step, walk(d.tr.root), d.tr.Len())
	}
	checkSlots(t, d.tr, step)
}

// checkSlots holds tr.byUser to the tree: every entry's user is recorded
// with the leaf node and position that hold it, and no other user is.
func checkSlots(t testing.TB, tr *Tree, step string) {
	t.Helper()
	held := 0
	var walk func(n *node)
	walk = func(n *node) {
		for i, e := range n.entries {
			if got := tr.byUser[e.UserID]; got != (slot{n, i}) {
				t.Fatalf("%s: %s lies at position %d of its leaf node, byUser records position %d of %p (node %p)",
					step, e.UserID, i, got.i, got.n, n)
			}
			held++
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	if held != len(tr.byUser) {
		t.Fatalf("%s: tree holds %d entries, byUser records %d users", step, held, len(tr.byUser))
	}
}

// checkVec holds n's producer or entity vector to its list: present
// whenever the list is dense enough to mirror, and when present equal to
// the list at every coordinate.
func checkVec(t testing.TB, n *node, ent bool, step string) {
	cs, v := *n.sig.coords(ent), *n.vec(ent)
	if v == nil {
		if wantsVec(cs) {
			t.Fatalf("%s: aggregate lists %v (ent %v) without a vector", step, cs, ent)
		}
		return
	}
	width := len(v)
	if len(cs) > 0 {
		width = max(width, int(cs[len(cs)-1].Idx)+1)
	}
	for i, w := range toDense(cs, width) {
		var got float64
		if i < len(v) {
			got = v[i]
		}
		if math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: vector (ent %v) reads %v at %d, list %v", step, ent, got, i, w)
		}
	}
}

func checkLogs(t testing.TB, s *Signature, step string) {
	if math.Float64bits(s.logPl) != math.Float64bits(safeLog(s.Pl)) ||
		math.Float64bits(s.logPs) != math.Float64bits(safeLog(s.Ps)) {
		t.Fatalf("%s: cached logs %v/%v for Pl/Ps %v/%v", step, s.logPl, s.logPs, s.Pl, s.Ps)
	}
}

// checkSearchAgainstDense runs a few random queries through Search,
// SequentialScan and a dense-reference scan of the leaves; all three must
// agree bit for bit.
func checkSearchAgainstDense(t testing.TB, d *opRunner, step string) {
	t.Helper()
	users := make(map[string]denseSig, d.tr.Len())
	for id := range d.tr.byUser {
		s, _ := d.tr.Get(id)
		users[id] = denseSig{pl: s.Pl, ps: s.Ps, prodTotal: s.ProdTotal, entTotal: s.EntTotal,
			prod: toDense(s.Prod, d.nProd), ent: toDense(s.Ent, d.nEnt)}
	}
	for range 3 {
		q := d.query()
		k := 1 + d.src.Intn(10)
		tqs := []TreeQuery{{Tree: d.tr, Query: q}}
		ref := newTopK(k)
		for id, u := range users {
			ref.Offer(id, denseScore(u, q))
		}
		want := ref.Sorted()
		got, _ := Search(tqs, k)
		scan := SequentialScan(tqs, k)
		for name, list := range map[string][]model.Recommendation{"Search": got, "SequentialScan": scan} {
			if !slices.EqualFunc(list, want, func(a, b model.Recommendation) bool {
				return a.UserID == b.UserID && math.Float64bits(a.Score) == math.Float64bits(b.Score)
			}) {
				t.Fatalf("%s: k=%d %s\n got %v\nwant %v (dense reference)", step, k, name, list, want)
			}
		}
	}
}

// opSource yields the choices of a write sequence: a seeded *rand.Rand for
// the property tests, fuzz bytes for FuzzCompactSignature.
type opSource interface {
	Intn(n int) int
	Float64() float64
}

// byteSource reads choices from fuzz input, one byte each, and reads 0
// once the input is exhausted.
type byteSource struct{ data []byte }

func (b *byteSource) next() int {
	if len(b.data) == 0 {
		return 0
	}
	v := int(b.data[0])
	b.data = b.data[1:]
	return v
}

func (b *byteSource) Intn(n int) int   { return b.next() % n }
func (b *byteSource) Float64() float64 { return float64(b.next()) / 256 }

// opRunner applies a random sequence of Insert/UpdateCopy/
// UpdateProbs/Delete to one tree while the universes grow under it.
// With special set, NaN and ±0 are mixed into every value, so the folds
// are exercised on the values whose comparisons differ; without it the
// values are those cppse writes (positive integer counts, probabilities
// in (0, 1)) and scores stay comparable.
type opRunner struct {
	tr          *Tree
	src         opSource
	special     bool
	nProd, nEnt int
	users       []string
	ops         int
	scratch     Signature
}

func newOpRunner(src opSource, special bool, fanout int) *opRunner {
	return &opRunner{tr: New(0, "c", NewUniverse(nil), NewUniverse(nil), fanout),
		src: src, special: special, nProd: 3, nEnt: 2}
}

// value occasionally swaps v for NaN, −0 or +0 when the runner is special.
func (d *opRunner) value(v float64) float64 {
	if !d.special {
		return v
	}
	switch d.src.Intn(40) {
	case 0:
		return math.NaN()
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0
	}
	return v
}

// signature builds a leaf with about three listed coordinates of each kind.
func (d *opRunner) signature() Signature {
	prod, ent := make([]float64, d.nProd), make([]float64, d.nEnt)
	for range 3 {
		prod[d.src.Intn(d.nProd)] = d.value(float64(1 + d.src.Intn(6)))
		ent[d.src.Intn(d.nEnt)] = d.value(float64(1 + d.src.Intn(6)))
	}
	return Signature{
		Pl:        d.value(0.01 + 0.98*d.src.Float64()),
		Ps:        d.value(0.01 + 0.98*d.src.Float64()),
		Prod:      fromDense(prod),
		Ent:       fromDense(ent),
		ProdTotal: d.value(float64(d.src.Intn(8))),
		EntTotal:  d.value(float64(d.src.Intn(8))),
	}
}

// perturb returns cur with a few fields changed, as one observation
// changes a leaf: sometimes nothing but Pl, sometimes a count or two —
// set, raised or dropped to zero.
func (d *opRunner) perturb(cur Signature) Signature {
	prod, ent := toDense(cur.Prod, d.nProd), toDense(cur.Ent, d.nEnt)
	for range d.src.Intn(3) {
		prod[d.src.Intn(d.nProd)] = d.value(float64(d.src.Intn(7)))
	}
	for range d.src.Intn(3) {
		ent[d.src.Intn(d.nEnt)] = d.value(float64(d.src.Intn(7)))
	}
	next := cur
	next.Prod, next.Ent = fromDense(prod), fromDense(ent)
	if d.src.Intn(2) == 0 {
		next.ProdTotal = d.value(cur.ProdTotal + 1)
	}
	if d.src.Intn(2) == 0 {
		next.EntTotal = d.value(cur.EntTotal + 1)
	}
	next.Pl = d.value(0.01 + 0.98*d.src.Float64())
	return next
}

// query builds a query over the current universes: a producer inside or
// outside them, and up to three distinct entities in ascending order with
// finite positive weights.
func (d *opRunner) query() *Query {
	q := &Query{ProdIdx: d.src.Intn(d.nProd+1) - 1, BgProd: 0.01 + 0.1*d.src.Float64(),
		BgEnt: 0.01 + 0.2*d.src.Float64(), Mu: 10, LambdaS: 0.4}
	for range 3 {
		idx := d.src.Intn(d.nEnt)
		if !slices.ContainsFunc(q.Ents, func(w WeightedIdx) bool { return w.Idx == idx }) {
			q.Ents = append(q.Ents, WeightedIdx{Idx: idx, W: 0.5 + d.src.Float64()})
		}
	}
	slices.SortFunc(q.Ents, func(a, b WeightedIdx) int { return a.Idx - b.Idx })
	q.EntW = AppendEntWeights(nil, q.Ents)
	return q
}

// step applies one write and describes it.
func (d *opRunner) step() string {
	if d.src.Intn(10) == 0 {
		d.nProd += 1 + d.src.Intn(3)
	}
	if d.src.Intn(12) == 0 {
		d.nEnt++
	}
	d.ops++
	switch k := d.src.Intn(10); {
	case len(d.users) == 0 || k < 2:
		id := fmt.Sprintf("u%d", d.ops)
		d.tr.Insert(id, d.signature())
		d.users = append(d.users, id)
		return "Insert " + id
	case k < 4:
		id := d.users[d.src.Intn(len(d.users))]
		cur, _ := d.tr.Get(id)
		next := d.perturb(cur)
		d.tr.UpdateCopy(id, &next)
		return "UpdateCopy (fresh lists) " + id
	case k < 7:
		id := d.users[d.src.Intn(len(d.users))]
		cur, _ := d.tr.Get(id)
		next := d.perturb(cur)
		// Copy through a reused buffer, as cppse's pooled refresh does.
		d.scratch.Pl, d.scratch.Ps = next.Pl, next.Ps
		d.scratch.ProdTotal, d.scratch.EntTotal = next.ProdTotal, next.EntTotal
		d.scratch.Prod = append(d.scratch.Prod[:0], next.Prod...)
		d.scratch.Ent = append(d.scratch.Ent[:0], next.Ent...)
		d.tr.UpdateCopy(id, &d.scratch)
		return "UpdateCopy " + id
	case k < 9:
		id := d.users[d.src.Intn(len(d.users))]
		pl, ps := d.value(d.src.Float64()), d.value(d.src.Float64())
		if d.src.Intn(4) == 0 {
			cur, _ := d.tr.Get(id)
			pl, ps = cur.Pl, cur.Ps // an idempotent restamp
		}
		d.tr.UpdateProbs(id, pl, ps)
		return "UpdateProbs " + id
	default:
		i := d.src.Intn(len(d.users))
		id := d.users[i]
		d.tr.Delete(id)
		d.users = slices.Delete(d.users, i, i+1)
		return "Delete " + id
	}
}

// TestCompactMatchesDenseReference: after every write of a seeded random
// sequence, each aggregate equals the dense fold of its leaves at every
// universe coordinate, and Search, SequentialScan and a dense-reference
// scan return the same users with the same score bits.
func TestCompactMatchesDenseReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		d := newOpRunner(rand.New(rand.NewSource(seed)), false, 2+int(seed%5))
		for op := range 300 {
			step := fmt.Sprintf("seed %d op %d %s", seed, op, d.step())
			checkDenseReference(t, d, step)
			checkSearchAgainstDense(t, d, step)
		}
	}
}

// FuzzCompactSignature runs the write sequence of the property tests with
// every choice read from the fuzz input. The first byte picks the fanout
// and whether NaN and ±0 are mixed in (then only the folds are checked:
// NaN scores have no order to compare).
func FuzzCompactSignature(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 200, 17, 3, 99, 4, 250, 6, 7, 1, 0, 3, 9, 12, 80})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{data: data}
		mode := src.next()
		d := newOpRunner(src, mode&1 == 1, 2+mode/2%5)
		for op := 0; len(src.data) > 0 && op < 200; op++ {
			step := fmt.Sprintf("op %d %s", op, d.step())
			checkAggregatesExact(t, d.tr, d.tr.root, step)
			checkDenseReference(t, d, step)
			if !d.special {
				checkSearchAgainstDense(t, d, step)
			}
		}
	})
}

// TestSkippedZeroTermsAreExact pins the two facts that make skipping an
// unlisted coordinate exact. Listing +0 explicitly at every coordinate a
// signature omits changes no score bit, for any finite query weight —
// W·(+0) is ±0, and adding ±0 to a sum that starts at +0 is the identity.
// And a count built as float64 of an integer, as cppse builds leaves, is
// never −0, so no stored count reads differently from the dense zero.
func TestSkippedZeroTermsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	weights := []float64{1, 0.25, 1e-300, 5e-324, 1e300, -0.5, math.MaxFloat64}
	for trial := range 200 {
		const nProd, nEnt = 12, 16
		sparse := randomSignature(nProd, nEnt, rng)
		sparse.stampLogs()
		padded := sparse.Clone()
		padded.Prod, padded.Ent = nil, nil
		for i, v := range toDense(sparse.Prod, nProd) {
			padded.Prod = append(padded.Prod, Coord{Idx: int32(i), Val: v})
		}
		for i, v := range toDense(sparse.Ent, nEnt) {
			padded.Ent = append(padded.Ent, Coord{Idx: int32(i), Val: v})
		}
		q := randomQuery(nProd, nEnt, rng)
		for i := range q.Ents {
			q.Ents[i].W = weights[rng.Intn(len(weights))]
		}
		q.EntW = AppendEntWeights(nil, q.Ents)
		if a, b := score(&sparse, nil, nil, q), score(&padded, nil, nil, q); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: skipping +0 terms moved the score %v → %v (weights %v)", trial, b, a, q.Ents)
		}
	}
	for _, n := range []int{0, 1, -1, 7, -7} {
		if math.Signbit(float64(n)) != (n < 0) {
			t.Fatalf("float64(%d) has the wrong sign", n)
		}
	}
}
