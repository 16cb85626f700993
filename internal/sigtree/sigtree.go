// Package sigtree implements the extended signature trees of the
// CPPse-index (Zhou et al., ICDE 2019, §V): one tree per ⟨user block,
// category⟩ pair, holding an impact-encoded leaf entry (LEntry) per user
// and max/min-aggregated internal entries (IEntry) that upper-bound the
// relevance of every descendant (Lemmas 1–2), enabling the branch-and-bound
// KNN of Algorithm 1.
//
// # Signature encoding
//
// The paper stores impact lists of smoothed probabilities. This
// implementation stores the exact sufficient statistics instead — raw
// producer/entity counts plus their totals — and folds Dirichlet smoothing
// into the scoring function:
//
//	p̂(x|u) = (count(x) + μ·bg(x)) / (total + μ)
//
// which is monotone increasing in count(x) and decreasing in total. An
// internal entry therefore aggregates counts with max() and totals with
// min(), making R(IEntry, v) a true upper bound of R(LEntry, v) for every
// descendant — the exact analogue of Lemma 1, but tight even for
// producers/entities outside the block universe (their background term is
// carried on the query). See DESIGN.md.
package sigtree

import (
	"math"
	"slices"
)

// Universe is an append-only name→index mapping shared by signatures and
// queries. Following the paper's maintenance rule, a fifth of extra
// capacity is reserved at construction so early growth does not reallocate
// ("we reserve 20% space of each entry").
type Universe struct {
	names []string
	idx   map[string]int
}

// NewUniverse builds a universe over the initial names (deduplicated,
// insertion order preserved).
func NewUniverse(names []string) *Universe {
	u := &Universe{
		names: make([]string, 0, len(names)+len(names)/5+1),
		idx:   make(map[string]int, len(names)),
	}
	for _, n := range names {
		u.Add(n)
	}
	return u
}

// Index returns the index of name and whether it is present.
func (u *Universe) Index(name string) (int, bool) {
	i, ok := u.idx[name]
	return i, ok
}

// Add returns the index of name, appending it if new.
func (u *Universe) Add(name string) int {
	if i, ok := u.idx[name]; ok {
		return i
	}
	i := len(u.names)
	u.names = append(u.names, name)
	u.idx[name] = i
	return i
}

// Len returns the number of names.
func (u *Universe) Len() int { return len(u.names) }

// Names returns the backing name slice (do not mutate).
func (u *Universe) Names() []string { return u.names }

// Signature is the impact encoding of one leaf entry (a user's long- and
// short-term statistics under the tree's category) or the max/min
// aggregation of an internal entry.
type Signature struct {
	Pl float64 // cached long-term BiHMM probability p(c|u)
	Ps float64 // cached short-term BiHMM probability ps(c|u)

	ProdCounts []float64 // raw browse counts over the block's producer universe
	ProdTotal  float64   // Σ producer counts of the user (min over children for IEntry)

	EntCounts []float64 // raw entity counts (this category) over the tree's entity universe
	EntTotal  float64   // Σ entity counts of the user in this category (min for IEntry)
}

// Clone deep-copies the signature.
func (s *Signature) Clone() Signature {
	c := *s
	c.ProdCounts = append([]float64(nil), s.ProdCounts...)
	c.EntCounts = append([]float64(nil), s.EntCounts...)
	return c
}

// widenMax and narrowMin are the only comparison forms of every aggregate
// fold — the full refold of recomputeSig and the field-wise refold of
// refoldPath alike — so NaN and −0 resolve identically on both paths: a
// value replaces the accumulator only when strictly greater (smaller).
func widenMax(acc, v float64) float64 {
	if v > acc {
		return v
	}
	return acc
}

func narrowMin(acc, v float64) float64 {
	if v < acc {
		return v
	}
	return acc
}

// foldInto widens dst to dominate src: max of Pl/Ps and count vectors,
// min of totals.
func foldInto(dst, src *Signature) {
	foldScalars(dst, src)
	dst.ProdCounts = foldMax(dst.ProdCounts, src.ProdCounts)
	dst.EntCounts = foldMax(dst.EntCounts, src.EntCounts)
}

// foldScalars is foldInto restricted to the four scalar fields.
func foldScalars(dst, src *Signature) {
	dst.Pl = widenMax(dst.Pl, src.Pl)
	dst.Ps = widenMax(dst.Ps, src.Ps)
	dst.ProdTotal = narrowMin(dst.ProdTotal, src.ProdTotal)
	dst.EntTotal = narrowMin(dst.EntTotal, src.EntTotal)
}

func foldMax(dst, src []float64) []float64 {
	dst = growTo(dst, len(src))
	for i, v := range src {
		dst[i] = widenMax(dst[i], v)
	}
	return dst
}

// growTo lengthens v to at least n, zeroing the exposed region; within
// capacity it does not allocate — the steady state of recomputeSig's and
// refoldPath's buffer reuse.
func growTo(v []float64, n int) []float64 {
	if n <= len(v) {
		return v
	}
	if cap(v) < n {
		grown := make([]float64, n)
		copy(grown, v)
		return grown
	}
	old := len(v)
	v = v[:n]
	clear(v[old:])
	return v
}

// emptyAgg is the identity element for foldInto.
func emptyAgg() Signature {
	return Signature{ProdTotal: math.Inf(1), EntTotal: math.Inf(1)}
}

// WeightedIdx is one sparse query entity: universe index and accumulated
// weight (frequency × expansion weight).
type WeightedIdx struct {
	Idx int
	W   float64
}

// Query is the pseudo-query encoding of an incoming item against one tree
// (the paper's Example 1): the producer one-hot collapses to ProdIdx, the
// entity frequency/weight vectors to the sparse Ents list, and the
// user-independent smoothing mass is precomputed in BgProd/BgEnt.
type Query struct {
	ProdIdx int     // index of the item's producer in the block universe, -1 if absent
	BgProd  float64 // background probability of the item's producer
	Ents    []WeightedIdx
	BgEnt   float64 // Σ_e freq_e·w_e·bg(e) over all query entities
	Mu      float64 // Dirichlet pseudo-count
	LambdaS float64 // Eq. 3 balance
}

const logFloor = 1e-12

func safeLog(v float64) float64 {
	if v < logFloor {
		v = logFloor
	}
	return math.Log(v)
}

// Score evaluates R(entry, v) per Definition 2 / Eq. 3 against a signature
// (leaf or internal). For internal entries this is the Recommendation
// Upper Bound.
func Score(sig *Signature, q *Query) float64 {
	var prodCount float64
	if q.ProdIdx >= 0 && q.ProdIdx < len(sig.ProdCounts) {
		prodCount = sig.ProdCounts[q.ProdIdx]
	}
	prodTerm := (prodCount + q.Mu*q.BgProd) / (sig.ProdTotal + q.Mu)

	var entDot float64
	for _, we := range q.Ents {
		if we.Idx >= 0 && we.Idx < len(sig.EntCounts) {
			entDot += we.W * sig.EntCounts[we.Idx]
		}
	}
	entTerm := (entDot + q.Mu*q.BgEnt) / (sig.EntTotal + q.Mu)

	longTerm := safeLog(sig.Pl) + safeLog(prodTerm) + safeLog(entTerm)
	return (1-q.LambdaS)*longTerm + q.LambdaS*safeLog(sig.Ps)
}

// LeafEntry is an LEntry: one user's signature plus its location.
type LeafEntry struct {
	UserID string
	Sig    Signature
	parent *node
}

type node struct {
	leaf     bool
	entries  []*LeafEntry // when leaf
	children []*node      // when internal
	sig      Signature    // aggregate (IEntry signature)
	parent   *node
}

// kids returns the number of signatures n aggregates: its leaf entries or
// its child nodes.
func (n *node) kids() int {
	if n.leaf {
		return len(n.entries)
	}
	return len(n.children)
}

// kidSig returns the signature of n's i-th leaf entry or child node.
func (n *node) kidSig(i int) *Signature {
	if n.leaf {
		return &n.entries[i].Sig
	}
	return &n.children[i].sig
}

// recomputeSig refolds n's aggregate from scratch over all its kids — the
// structural paths' refresh (Delete, splits) and the oracle the
// field-wise refold of refoldPath must reproduce bit for bit.
func (n *node) recomputeSig() {
	// Reuse the node's own count buffers: entries/children hold separate
	// slices, so truncating and refolding in place is safe and keeps
	// propagateUp allocation-free once the buffers have grown to size.
	agg := emptyAgg()
	agg.ProdCounts = n.sig.ProdCounts[:0]
	agg.EntCounts = n.sig.EntCounts[:0]
	for i := range n.kids() {
		foldInto(&agg, n.kidSig(i))
	}
	n.sig = agg
}

// Tree is one extended signature tree for a ⟨block, category⟩ pair.
type Tree struct {
	BlockID  int
	Category string
	Prod     *Universe // producer universe, shared across the block's trees
	Ent      *Universe // entity universe of this tree

	root   *node
	fanout int
	byUser map[string]*LeafEntry

	// prodDirty and entDirty are refoldPath's coordinate scratch: the
	// producer/entity indices still to refold at the current level. Trees
	// are mutated only under their owner's write lock, so one pair per
	// tree keeps a warm refresh allocation-free.
	prodDirty, entDirty []int
}

// DefaultFanout is used when New is called with fanout < 2.
const DefaultFanout = 8

// New creates an empty tree.
func New(blockID int, category string, prod, ent *Universe, fanout int) *Tree {
	if fanout < 2 {
		fanout = DefaultFanout
	}
	return &Tree{
		BlockID:  blockID,
		Category: category,
		Prod:     prod,
		Ent:      ent,
		root:     &node{leaf: true, sig: emptyAgg()},
		fanout:   fanout,
		byUser:   make(map[string]*LeafEntry),
	}
}

// Len returns the number of leaf entries (users).
func (t *Tree) Len() int { return len(t.byUser) }

// Get returns the signature stored for userID.
func (t *Tree) Get(userID string) (Signature, bool) {
	e := t.byUser[userID]
	if e == nil {
		return Signature{}, false
	}
	return e.Sig, true
}

// Has reports whether the user has a leaf entry.
func (t *Tree) Has(userID string) bool { return t.byUser[userID] != nil }

// Users returns the user IDs present (unspecified order).
func (t *Tree) Users() []string {
	out := make([]string, 0, len(t.byUser))
	for u := range t.byUser {
		out = append(out, u)
	}
	return out
}

// Insert adds a new leaf entry. Inserting an existing user updates it
// instead.
func (t *Tree) Insert(userID string, sig Signature) {
	if e := t.byUser[userID]; e != nil {
		t.updateEntry(e, sig)
		return
	}
	// Descend along the child whose aggregate signature expands least to
	// absorb the new entry (R-tree ChooseSubtree analogue): similar users
	// end up co-located, which is what keeps internal upper bounds tight.
	n := t.root
	for !n.leaf {
		best, bestCost := n.children[0], expansionCost(&n.children[0].sig, &sig)
		for _, c := range n.children[1:] {
			if cost := expansionCost(&c.sig, &sig); cost < bestCost ||
				(cost == bestCost && subtreeSize(c) < subtreeSize(best)) {
				best, bestCost = c, cost
			}
		}
		n = best
	}
	e := &LeafEntry{UserID: userID, Sig: sig, parent: n}
	n.entries = append(n.entries, e)
	t.byUser[userID] = e
	if len(n.entries) > t.fanout {
		t.propagateUp(n)
		t.splitLeaf(n)
		return
	}
	// Without a split the new leaf is one more kid under unchanged
	// ancestors: every coordinate it holds is dirty against the empty
	// signature, and the field-wise refold settles the rest.
	t.markDirty(&Signature{}, &sig)
	t.refoldPath(e)
}

// Update replaces a user's signature and refreshes ancestor aggregates.
// Returns false if the user is absent.
func (t *Tree) Update(userID string, sig Signature) bool {
	e := t.byUser[userID]
	if e == nil {
		return false
	}
	t.updateEntry(e, sig)
	return true
}

func (t *Tree) updateEntry(e *LeafEntry, sig Signature) {
	t.markDirty(&e.Sig, &sig)
	e.Sig = sig
	t.refoldPath(e)
}

// UpdateCopy replaces a user's signature by copying sig's values into the
// leaf-owned slices instead of adopting them — the write path for
// scratch-backed signatures (cppse's pooled refresh buffers), which must
// never be stored into the tree. Returns false if the user is absent.
func (t *Tree) UpdateCopy(userID string, sig *Signature) bool {
	e := t.byUser[userID]
	if e == nil {
		return false
	}
	t.markDirty(&e.Sig, sig)
	e.Sig.Pl, e.Sig.Ps = sig.Pl, sig.Ps
	e.Sig.ProdTotal, e.Sig.EntTotal = sig.ProdTotal, sig.EntTotal
	e.Sig.ProdCounts = append(e.Sig.ProdCounts[:0], sig.ProdCounts...)
	e.Sig.EntCounts = append(e.Sig.EntCounts[:0], sig.EntCounts...)
	t.refoldPath(e)
	return true
}

// UpdateProbs restamps only the cached BiHMM probabilities of a user's
// leaf, leaving the count statistics untouched — the non-dirty-category
// leg of an incremental refresh, where the short-term prediction changed
// (the window grew) but no event landed in this tree's category. No count
// coordinate is dirty, so the refold touches only the scalars and stops
// at the first ancestor whose maxima did not move. Returns false if the
// user is absent.
func (t *Tree) UpdateProbs(userID string, pl, ps float64) bool {
	e := t.byUser[userID]
	if e == nil {
		return false
	}
	e.Sig.Pl, e.Sig.Ps = pl, ps
	t.prodDirty, t.entDirty = t.prodDirty[:0], t.entDirty[:0]
	t.refoldPath(e)
	return true
}

// markDirty records in the tree's coordinate scratch every producer and
// entity index at which next differs from prev.
func (t *Tree) markDirty(prev, next *Signature) {
	t.prodDirty = appendChanged(t.prodDirty[:0], prev.ProdCounts, next.ProdCounts)
	t.entDirty = appendChanged(t.entDirty[:0], prev.EntCounts, next.EntCounts)
}

// appendChanged appends the indices at which prev and next differ bit for
// bit, reading a coordinate past either's end as +0 — so growth and
// shrinkage are recorded like any other change.
func appendChanged(dirty []int, prev, next []float64) []int {
	common := min(len(prev), len(next))
	for i := range common {
		if math.Float64bits(prev[i]) != math.Float64bits(next[i]) {
			dirty = append(dirty, i)
		}
	}
	tail := prev[common:]
	if len(next) > common {
		tail = next[common:]
	}
	for i, v := range tail {
		if math.Float64bits(v) != 0 {
			dirty = append(dirty, common+i)
		}
	}
	return dirty
}

// refoldPath restores the aggregates from e's leaf node to the root after
// e changed in place or was inserted without a split, with
// t.prodDirty/t.entDirty holding the count coordinates that changed (for
// an insert: every coordinate e holds). Each level refolds the four scalars over its
// ≤ fanout kids, grows its vectors to e's length, and refolds the count
// maxima only at the dirty coordinates; a coordinate whose aggregate came
// out bit-identical is dropped before the next level, and the walk stops
// at the first node whose aggregate did not change at all. Max and min
// are exact and widenMax/narrowMin fold the kids in the same order as
// recomputeSig, so every aggregate equals a from-scratch fold, up to
// trailing zeros (which Score reads as zero anyway).
func (t *Tree) refoldPath(e *LeafEntry) {
	prodLen, entLen := len(e.Sig.ProdCounts), len(e.Sig.EntCounts)
	for n := e.parent; n != nil; n = n.parent {
		changed := refoldScalars(n)
		if len(n.sig.ProdCounts) < prodLen || len(n.sig.EntCounts) < entLen {
			n.sig.ProdCounts = growTo(n.sig.ProdCounts, prodLen)
			n.sig.EntCounts = growTo(n.sig.EntCounts, entLen)
			changed = true
		}
		t.prodDirty = refoldCounts(n, t.prodDirty, false)
		t.entDirty = refoldCounts(n, t.entDirty, true)
		if !changed && len(t.prodDirty) == 0 && len(t.entDirty) == 0 {
			return
		}
	}
}

// refoldScalars refolds n's Pl/Ps maxima and total minima over its kids
// and reports whether any of the four changed bit for bit.
func refoldScalars(n *node) bool {
	agg := emptyAgg()
	for i := range n.kids() {
		foldScalars(&agg, n.kidSig(i))
	}
	s := &n.sig
	changed := math.Float64bits(agg.Pl) != math.Float64bits(s.Pl) ||
		math.Float64bits(agg.Ps) != math.Float64bits(s.Ps) ||
		math.Float64bits(agg.ProdTotal) != math.Float64bits(s.ProdTotal) ||
		math.Float64bits(agg.EntTotal) != math.Float64bits(s.EntTotal)
	s.Pl, s.Ps, s.ProdTotal, s.EntTotal = agg.Pl, agg.Ps, agg.ProdTotal, agg.EntTotal
	return changed
}

// refoldCounts refolds n's producer (ent=false) or entity (ent=true) count
// maxima at the dirty coordinates and returns, compacted in place, those
// whose aggregate changed. A kid whose vector ends before a coordinate
// does not take part, exactly as in foldMax.
func refoldCounts(n *node, dirty []int, ent bool) []int {
	agg := counts(&n.sig, ent)
	kept := dirty[:0]
	for _, i := range dirty {
		var m float64
		for k := range n.kids() {
			if c := counts(n.kidSig(k), ent); i < len(c) {
				m = widenMax(m, c[i])
			}
		}
		if math.Float64bits(m) != math.Float64bits(agg[i]) {
			agg[i] = m
			kept = append(kept, i)
		}
	}
	return kept
}

// counts returns s's entity (ent) or producer count vector.
func counts(s *Signature, ent bool) []float64 {
	if ent {
		return s.EntCounts
	}
	return s.ProdCounts
}

func (t *Tree) propagateUp(n *node) {
	for ; n != nil; n = n.parent {
		n.recomputeSig()
	}
}

// expansionCost estimates how much agg must widen to dominate sig: the sum
// of count increases plus (heavily weighted) probability increases and
// total decreases. Lower cost = better fit.
func expansionCost(agg, sig *Signature) float64 {
	var cost float64
	for i, v := range sig.ProdCounts {
		var cur float64
		if i < len(agg.ProdCounts) {
			cur = agg.ProdCounts[i]
		}
		if v > cur {
			cost += v - cur
		}
	}
	for i, v := range sig.EntCounts {
		var cur float64
		if i < len(agg.EntCounts) {
			cur = agg.EntCounts[i]
		}
		if v > cur {
			cost += v - cur
		}
	}
	if sig.Pl > agg.Pl {
		cost += 50 * (sig.Pl - agg.Pl)
	}
	if sig.Ps > agg.Ps {
		cost += 50 * (sig.Ps - agg.Ps)
	}
	if sig.ProdTotal < agg.ProdTotal {
		cost += agg.ProdTotal - sig.ProdTotal
	}
	if sig.EntTotal < agg.EntTotal {
		cost += agg.EntTotal - sig.EntTotal
	}
	return cost
}

func subtreeSize(n *node) int {
	if n.leaf {
		return len(n.entries)
	}
	s := 0
	for _, c := range n.children {
		s += subtreeSize(c)
	}
	return s
}

func (t *Tree) splitLeaf(n *node) {
	half := len(n.entries) / 2
	left := &node{leaf: true, entries: n.entries[:half:half], parent: n.parent}
	right := &node{leaf: true, entries: append([]*LeafEntry(nil), n.entries[half:]...), parent: n.parent}
	for _, e := range left.entries {
		e.parent = left
	}
	for _, e := range right.entries {
		e.parent = right
	}
	left.recomputeSig()
	right.recomputeSig()
	t.replaceChild(n, left, right)
}

func (t *Tree) splitInternal(n *node) {
	half := len(n.children) / 2
	left := &node{children: n.children[:half:half], parent: n.parent}
	right := &node{children: append([]*node(nil), n.children[half:]...), parent: n.parent}
	for _, c := range left.children {
		c.parent = left
	}
	for _, c := range right.children {
		c.parent = right
	}
	left.recomputeSig()
	right.recomputeSig()
	t.replaceChild(n, left, right)
}

// replaceChild swaps n for (left, right) under n's parent, growing a new
// root if n was the root, and splits the parent if it overflows.
func (t *Tree) replaceChild(n, left, right *node) {
	p := n.parent
	if p == nil {
		newRoot := &node{children: []*node{left, right}}
		left.parent, right.parent = newRoot, newRoot
		newRoot.recomputeSig()
		t.root = newRoot
		return
	}
	pos := -1
	for i, c := range p.children {
		if c == n {
			pos = i
			break
		}
	}
	rebuilt := make([]*node, 0, len(p.children)+1)
	rebuilt = append(rebuilt, p.children[:pos]...)
	rebuilt = append(rebuilt, left, right)
	rebuilt = append(rebuilt, p.children[pos+1:]...)
	p.children = rebuilt
	t.propagateUp(p)
	if len(p.children) > t.fanout {
		t.splitInternal(p)
	}
}

// Delete removes a user's leaf entry and refreshes ancestor aggregates.
// Empty leaf nodes are left in place (they are cheap and splits stay
// balanced); their aggregates become the fold identity. Returns false if
// the user is absent.
func (t *Tree) Delete(userID string) bool {
	e := t.byUser[userID]
	if e == nil {
		return false
	}
	n := e.parent
	for i, cur := range n.entries {
		if cur == e {
			n.entries = slices.Delete(n.entries, i, i+1)
			break
		}
	}
	delete(t.byUser, userID)
	t.propagateUp(n)
	return true
}

// RootScore returns the upper-bound score of the whole tree for a query —
// the priority of the tree's root in Algorithm 1.
func (t *Tree) RootScore(q *Query) float64 {
	if t.Len() == 0 {
		return math.Inf(-1)
	}
	return Score(&t.root.sig, q)
}

// Depth returns the height of the tree (1 = single leaf node).
func (t *Tree) Depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}
