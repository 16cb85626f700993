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
//
// Counts are sparse: a sorted list of (index, count) Coords, where an
// index not listed reads +0. A leaf node keeps its entries' lists back to
// back in one slab, so scoring the node walks a few adjacent cache lines;
// an aggregate lists exactly the coordinates whose folded maximum is not
// +0, and mirrors a list that is dense enough as a vector for one-load
// reads. Every read returns the bits a dense vector over the universe
// would hold, and scoring skips only W·(+0) terms, which add nothing to a
// sum that starts at +0; so scores, tree shapes and traversals are those
// of the dense encoding.
package sigtree

import (
	"math"
	"slices"

	"ssrec/internal/intern"
)

// Universe is an append-only list of names drawn from one interned id
// space (the producers', or one category's entities), giving each its
// position in the signatures of the trees that share it. Positions follow
// insertion order; an id maps to its position through a slice bounded by
// the largest id added, so the hot paths never hash a name. Following the
// paper's maintenance rule, a fifth of extra name capacity is reserved at
// construction so early growth does not reallocate ("we reserve 20% space
// of each entry").
type Universe struct {
	tab   *intern.Table
	names []string
	pos   []int32 // pos[id] is id's position + 1; 0 = absent
}

// NewUniverse builds a universe over ids of tab, seeded with the initial
// names (interned into tab, deduplicated, insertion order preserved). A
// nil tab gives the universe an id space of its own.
func NewUniverse(tab *intern.Table, names []string) *Universe {
	if tab == nil {
		tab = new(intern.Table)
	}
	u := &Universe{tab: tab, names: make([]string, 0, len(names)+len(names)/5+1)}
	for _, n := range names {
		u.Add(n)
	}
	return u
}

// Pos returns the position of the name with id and whether it is present
// (never for a negative id).
func (u *Universe) Pos(id int32) (int, bool) {
	if uint(id) >= uint(len(u.pos)) || u.pos[id] == 0 {
		return 0, false
	}
	return int(u.pos[id]) - 1, true
}

// AddID returns the position of the name with id, appending it if new.
func (u *Universe) AddID(id int32) int {
	if i, ok := u.Pos(id); ok {
		return i
	}
	if int(id) >= len(u.pos) {
		u.pos = append(u.pos, make([]int32, int(id)+1-len(u.pos))...)
	}
	i := len(u.names)
	u.names = append(u.names, u.tab.Name(id))
	u.pos[id] = int32(i + 1)
	return i
}

// Add returns the position of name, interning it and appending it if new.
func (u *Universe) Add(name string) int { return u.AddID(u.tab.Intern(name)) }

// Name returns the name with id in the universe's id space, whether or
// not the universe holds it.
func (u *Universe) Name(id int32) string { return u.tab.Name(id) }

// Len returns the number of names.
func (u *Universe) Len() int { return len(u.names) }

// Names returns the backing name slice (do not mutate).
func (u *Universe) Names() []string { return u.names }

// IndexBytes reports the bytes of the universe's id → position slice.
func (u *Universe) IndexBytes() int { return 4 * cap(u.pos) }

// Coord is one stored coordinate of a sparse count vector: a universe
// index and the count there.
type Coord struct {
	Idx int32
	Val float64
}

// Signature is the impact encoding of one leaf entry (a user's long- and
// short-term statistics under the tree's category) or the max/min
// aggregation of an internal entry. Prod and Ent list their coordinates by
// strictly ascending Idx; an index not listed reads +0.
type Signature struct {
	// The fields scoring reads come first, so they share cache lines.
	ProdTotal float64 // Σ producer counts of the user (min over children for IEntry)
	EntTotal  float64 // Σ entity counts of the user in this category (min for IEntry)

	// logPl and logPs cache safeLog(Pl) and safeLog(Ps) for scoring. The
	// tree restamps them whenever it writes Pl/Ps, on leaves and
	// aggregates alike.
	logPl, logPs float64

	Prod []Coord // browse counts over the block's producer universe
	Ent  []Coord // entity counts (this category) over the tree's entity universe

	Pl float64 // cached long-term BiHMM probability p(c|u)
	Ps float64 // cached short-term BiHMM probability ps(c|u)
}

// Clone deep-copies the signature.
func (s *Signature) Clone() Signature {
	c := *s
	c.Prod = slices.Clone(s.Prod)
	c.Ent = slices.Clone(s.Ent)
	return c
}

// stampLogs refreshes the cached logarithms from Pl and Ps.
func (s *Signature) stampLogs() {
	s.logPl, s.logPs = safeLog(s.Pl), safeLog(s.Ps)
}

// coords returns s's entity (ent) or producer coordinate list.
func (s *Signature) coords(ent bool) *[]Coord {
	if ent {
		return &s.Ent
	}
	return &s.Prod
}

// seekIdx returns the first position in cs whose Idx is at least idx: a
// binary search down to a short run, then a linear scan — most lists are
// a cache line or two long.
func seekIdx(cs []Coord, idx int32) int {
	lo, hi := 0, len(cs)
	for hi-lo > 8 {
		mid := int(uint(lo+hi) >> 1)
		if cs[mid].Idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < hi && cs[lo].Idx < idx {
		lo++
	}
	return lo
}

// at returns the count cs holds at idx, +0 when it lists none.
func at(cs []Coord, idx int32) float64 {
	if i := seekIdx(cs, idx); i < len(cs) && cs[i].Idx == idx {
		return cs[i].Val
	}
	return 0
}

// growTo lengthens v to at least n, zeroing the exposed region; within
// capacity it does not allocate.
func growTo(v []float64, n int) []float64 {
	if n <= len(v) {
		return v
	}
	if cap(v) < n {
		grown := make([]float64, n, n+n/4)
		copy(grown, v)
		return grown
	}
	old := len(v)
	v = v[:n]
	clear(v[old:])
	return v
}

// widenMax and narrowMin are the only comparison forms of every aggregate
// fold — the full refold of recomputeSig and the refolds deltaWalk falls
// back on alike — so the folds in kid order resolve NaN and −0
// identically: a value replaces the accumulator only when strictly greater
// (smaller). A count fold starts from +0, so it never yields −0 or NaN,
// and +0 is exactly what an unlisted coordinate reads.
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

// foldScalars widens dst's Pl/Ps maxima and narrows its total minima to
// dominate src.
func foldScalars(dst, src *Signature) {
	dst.Pl = widenMax(dst.Pl, src.Pl)
	dst.Ps = widenMax(dst.Ps, src.Ps)
	dst.ProdTotal = narrowMin(dst.ProdTotal, src.ProdTotal)
	dst.EntTotal = narrowMin(dst.EntTotal, src.EntTotal)
}

// emptyAgg is the identity element of the aggregate fold (its cached
// logarithms are not stamped).
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
// entity frequency/weight vectors to the sparse Ents list (distinct,
// ascending Idx, finite non-zero weights) and the same weights laid out
// by index in EntW, and the user-independent smoothing mass is
// precomputed in BgProd/BgEnt.
type Query struct {
	ProdIdx int     // index of the item's producer in the block universe, -1 if absent
	BgProd  float64 // background probability of the item's producer
	Ents    []WeightedIdx
	EntW    []float64 // the weights of Ents by universe index, 0 elsewhere (AppendEntWeights)
	BgEnt   float64   // Σ_e freq_e·w_e·bg(e) over all query entities
	Mu      float64   // Dirichlet pseudo-count
	LambdaS float64   // Eq. 3 balance
}

const logFloor = 1e-12

func safeLog(v float64) float64 {
	if v < logFloor {
		v = logFloor
	}
	return math.Log(v)
}

// AppendEntWeights appends to dst the weights of ents laid out by universe
// index — 0 elsewhere, up to the last entity — and returns dst; the
// appended run is the EntW of a query whose Ents are ents.
func AppendEntWeights(dst []float64, ents []WeightedIdx) []float64 {
	if len(ents) == 0 {
		return dst
	}
	start := len(dst)
	dst = append(dst, make([]float64, ents[len(ents)-1].Idx+1)...)
	for _, we := range ents {
		dst[start+we.Idx] = we.W
	}
	return dst
}

// score evaluates R(entry, v) per Definition 2 / Eq. 3 against a
// signature (leaf or internal) held by a Tree, whose cached logarithms are
// current; for internal entries this is the Recommendation Upper Bound. It
// reads the producer and entity counts from prodVec and entVec, an
// aggregate's vectors, where they are non-nil, and from sig's lists
// otherwise.
//
// From a list, the entity dot product walks sig's entity list and looks
// each weight up in q.EntW. Both are index-ascending, so the terms are
// added in q.Ents order. It skips the entities sig does not list: their
// term is W·(+0), ±0 for a finite W, and adding ±0 leaves the sum — which
// starts at +0 and so is never −0 — bit for bit unchanged.
func score(sig *Signature, prodVec, entVec []float64, q *Query) float64 {
	var prodCount float64
	if q.ProdIdx >= 0 {
		if prodVec != nil {
			if q.ProdIdx < len(prodVec) {
				prodCount = prodVec[q.ProdIdx]
			}
		} else {
			prodCount = at(sig.Prod, int32(q.ProdIdx))
		}
	}
	prodTerm := (prodCount + q.Mu*q.BgProd) / (sig.ProdTotal + q.Mu)

	var entDot float64
	if v := entVec; v != nil {
		for _, we := range q.Ents {
			if we.Idx >= 0 && we.Idx < len(v) {
				entDot += we.W * v[we.Idx]
			}
		}
	} else {
		w := q.EntW
		for _, c := range sig.Ent {
			if int(c.Idx) < len(w) && w[c.Idx] != 0 {
				entDot += w[c.Idx] * c.Val
			}
		}
	}
	entTerm := (entDot + q.Mu*q.BgEnt) / (sig.EntTotal + q.Mu)

	longTerm := sig.logPl + safeLog(prodTerm) + safeLog(entTerm)
	return (1-q.LambdaS)*longTerm + q.LambdaS*sig.logPs
}

// LeafEntry is an LEntry: one user's signature.
type LeafEntry struct {
	UserID string
	Sig    Signature
}

type node struct {
	// prodVec and entVec hold the aggregate's producer and entity counts
	// by coordinate while the list is dense enough (wantsVec), and are nil
	// otherwise. An index past a vector's end reads +0. They and the head of
	// sig are what scoring the node reads, so they lead the struct.
	prodVec, entVec []float64
	sig             Signature // aggregate (IEntry signature)

	leaf     bool
	entries  []LeafEntry // when leaf, held by value so a scan reads them in address order
	children []*node     // when internal
	parent   *node
	size     int // leaf entries in the subtree

	// slab backs the Prod and Ent lists of a leaf node's entries, packed
	// back to back in entry order; every entry list is a capacity-capped
	// window of it.
	slab []Coord
}

// kids returns the number of signatures n aggregates: its leaf entries or
// its child nodes.
func (n *node) kids() int {
	if n.leaf {
		return len(n.entries)
	}
	return len(n.children)
}

// denseSpan sets when an aggregate also keeps a list as a vector indexed
// by coordinate: when the list holds at least one coordinate in every
// denseSpan of its span (last index + 1), so the vector costs at most
// denseSpan/2 times the list's bytes. Reading a count from a sorted list
// is a binary search, a chain of dependent cache misses, where a vector
// read is one load. At ytube-10k (seed 1) leaf-node aggregates list 27
// of 582 producers (5 %) and 31 of 80 entities (39 %); the nodes above
// them list 113–541 producers (19–93 %) and 67–80 entities. Serial search
// with every aggregate list mirrored was no faster than with these
// leaf-node producer lists left sparse, and held 30 MB more live heap;
// mirroring only lists longer than 64 coordinates, which leaves most
// entity lists sparse, was about 15 % slower.
const denseSpan = 8

// wantsVec reports whether list cs is dense enough to mirror.
func wantsVec(cs []Coord) bool {
	return len(cs) > 0 && int(cs[len(cs)-1].Idx)+1 <= denseSpan*len(cs)
}

// score evaluates the query against n's aggregate.
func (n *node) score(q *Query) float64 { return score(&n.sig, n.prodVec, n.entVec, q) }

// vec returns n's producer (ent=false) or entity vector.
func (n *node) vec(ent bool) *[]float64 {
	if ent {
		return &n.entVec
	}
	return &n.prodVec
}

// count returns n's aggregate producer or entity count at idx.
func (n *node) count(ent bool, idx int32) float64 {
	if v := *n.vec(ent); v != nil {
		if int(idx) < len(v) {
			return v[idx]
		}
		return 0
	}
	return at(*n.sig.coords(ent), idx)
}

// kidCount returns the producer or entity count of n's k-th kid at idx.
func (n *node) kidCount(k int, ent bool, idx int32) float64 {
	if n.leaf {
		return at(*n.entries[k].Sig.coords(ent), idx)
	}
	return n.children[k].count(ent, idx)
}

// syncVec rebuilds n's producer or entity vector from the list, or drops
// it when the list is too sparse to mirror.
func (n *node) syncVec(ent bool) {
	cs, v := *n.sig.coords(ent), n.vec(ent)
	if !wantsVec(cs) {
		*v = nil
		return
	}
	width := int(cs[len(cs)-1].Idx) + 1
	if cap(*v) < width {
		*v = make([]float64, width)
	} else {
		*v = (*v)[:width]
		clear(*v)
	}
	for _, c := range cs {
		(*v)[c.Idx] = c.Val
	}
}

// kidSig returns the signature of n's i-th leaf entry or child node.
func (n *node) kidSig(i int) *Signature {
	if n.leaf {
		return &n.entries[i].Sig
	}
	return &n.children[i].sig
}

// Tree is one extended signature tree for a ⟨block, category⟩ pair.
type Tree struct {
	BlockID  int
	Category string
	Prod     *Universe // producer universe, shared across the block's trees
	Ent      *Universe // entity universe of this tree

	root   *node
	fanout int
	byUser map[string]slot // where each user's leaf entry lies

	// Write-path scratch. prodMoves and entMoves are deltaWalk's count
	// moves at the current level; cursors holds recomputeSig's merge
	// positions, one per kid, and packing stages a leaf node's slab while
	// it is rewritten. Trees are mutated only under their owner's write
	// lock, so one set per tree keeps a warm refresh allocation-free.
	prodMoves, entMoves []countMove
	cursors             []int
	packing             []Coord
}

// slot names the leaf node holding a user's entry and its position there.
type slot struct {
	n *node
	i int
}

// DefaultFanout is used when New is called with fanout < 2.
const DefaultFanout = 8

// New creates an empty tree.
func New(blockID int, category string, prod, ent *Universe, fanout int) *Tree {
	if fanout < 2 {
		fanout = DefaultFanout
	}
	root := &node{leaf: true, sig: emptyAgg()}
	root.sig.stampLogs()
	return &Tree{
		BlockID:  blockID,
		Category: category,
		Prod:     prod,
		Ent:      ent,
		root:     root,
		fanout:   fanout,
		byUser:   make(map[string]slot),
	}
}

// Len returns the number of leaf entries (users).
func (t *Tree) Len() int { return len(t.byUser) }

// entry returns the leaf node holding userID and the user's position in
// it, or a nil node if the user is absent.
func (t *Tree) entry(userID string) (*node, int) {
	s := t.byUser[userID]
	return s.n, s.i
}

// Get returns a copy of the signature stored for userID.
func (t *Tree) Get(userID string) (Signature, bool) {
	n, i := t.entry(userID)
	if n == nil {
		return Signature{}, false
	}
	return n.entries[i].Sig.Clone(), true
}

// Has reports whether the user has a leaf entry.
func (t *Tree) Has(userID string) bool { return t.byUser[userID].n != nil }

// Users returns the user IDs present (unspecified order).
func (t *Tree) Users() []string {
	out := make([]string, 0, len(t.byUser))
	for u := range t.byUser {
		out = append(out, u)
	}
	return out
}

// Insert adds a new leaf entry, copying sig's lists into the tree.
// Inserting an existing user updates it instead.
func (t *Tree) Insert(userID string, sig Signature) {
	if n, i := t.entry(userID); n != nil {
		t.updateEntry(n, i, &sig)
		return
	}
	// Descend along the child whose aggregate signature expands least to
	// absorb the new entry (R-tree ChooseSubtree analogue): similar users
	// end up co-located, which is what keeps internal upper bounds tight.
	n := t.root
	for !n.leaf {
		best, bestCost := n.children[0], expansionCost(n.children[0], &sig)
		for _, c := range n.children[1:] {
			if cost := expansionCost(c, &sig); cost < bestCost ||
				(cost == bestCost && c.size < best.size) {
				best, bestCost = c, cost
			}
		}
		n = best
	}
	// The new entry is a kid whose scalars move from absent and whose
	// counts move from the +0 an unlisted coordinate reads, which no count
	// fold depends on. A split that follows leaves every ancestor's fold as
	// it is — the same leaves, in the same order.
	i := len(n.entries)
	n.entries = append(n.entries, LeafEntry{UserID: userID,
		Sig: Signature{Pl: absent, Ps: absent, ProdTotal: absent, EntTotal: absent}})
	for a := n; a != nil; a = a.parent {
		a.size++
	}
	t.byUser[userID] = slot{n, i}
	t.updateEntry(n, i, &sig)
	if len(n.entries) > t.fanout {
		t.splitLeaf(n)
	}
}

// UpdateCopy replaces a user's signature and refreshes ancestor
// aggregates. The tree copies sig's lists into its own storage and never
// retains sig, so callers may pass scratch-backed signatures (cppse's
// pooled refresh buffers). Returns false if the user is absent.
func (t *Tree) UpdateCopy(userID string, sig *Signature) bool {
	n, i := t.entry(userID)
	if n == nil {
		return false
	}
	t.updateEntry(n, i, sig)
	return true
}

// updateEntry rewrites the i-th entry of leaf node n.
func (t *Tree) updateEntry(n *node, i int, sig *Signature) {
	e := &n.entries[i].Sig
	old := e.scalars()
	t.prodMoves = appendMoves(t.prodMoves[:0], e.Prod, sig.Prod)
	t.entMoves = appendMoves(t.entMoves[:0], e.Ent, sig.Ent)
	t.writeLeaf(n, i, sig)
	t.deltaWalk(n, e, old)
}

// UpdateProbs restamps only the cached BiHMM probabilities of a user's
// leaf, leaving the count statistics untouched — the non-dirty-category
// leg of an incremental refresh, where the short-term prediction changed
// (the window grew) but no event landed in this tree's category. No count
// moves, so the walk carries only Pl and Ps and stops at the first
// ancestor whose maxima did not move. Returns false if the user is absent.
func (t *Tree) UpdateProbs(userID string, pl, ps float64) bool {
	n, i := t.entry(userID)
	if n == nil {
		return false
	}
	e := &n.entries[i].Sig
	old := e.scalars()
	e.Pl, e.Ps = pl, ps
	e.stampLogs()
	t.prodMoves, t.entMoves = t.prodMoves[:0], t.entMoves[:0]
	t.deltaWalk(n, e, old)
	return true
}

// writeLeaf stores sig into the i-th entry of leaf node n: the scalars in
// place, the lists in place when their lengths are unchanged (the steady
// state of a count going up) and otherwise by repacking the node's slab.
func (t *Tree) writeLeaf(n *node, i int, sig *Signature) {
	e := &n.entries[i]
	e.Sig.Pl, e.Sig.Ps = sig.Pl, sig.Ps
	e.Sig.ProdTotal, e.Sig.EntTotal = sig.ProdTotal, sig.EntTotal
	e.Sig.stampLogs()
	if len(e.Sig.Prod) == len(sig.Prod) && len(e.Sig.Ent) == len(sig.Ent) {
		copy(e.Sig.Prod, sig.Prod)
		copy(e.Sig.Ent, sig.Ent)
		return
	}
	t.repack(n, i, sig)
}

// repack rewrites leaf node n's slab with its entries' lists back to back,
// taking the i-th entry's lists from sig (i < 0: none). The slab is reused
// while it is large enough and otherwise grows as append grows it.
func (t *Tree) repack(n *node, i int, sig *Signature) {
	lists := func(k int) ([]Coord, []Coord) {
		if k == i {
			return sig.Prod, sig.Ent
		}
		return n.entries[k].Sig.Prod, n.entries[k].Sig.Ent
	}
	buf := t.packing[:0]
	for k := range n.entries {
		p, en := lists(k)
		buf = append(buf, p...)
		buf = append(buf, en...)
	}
	t.packing = buf
	n.slab = append(n.slab[:0], buf...)
	off := 0
	for k := range n.entries {
		p, en := lists(k)
		np, ne := len(p), len(en)
		x := &n.entries[k]
		x.Sig.Prod = n.slab[off : off+np : off+np]
		off += np
		x.Sig.Ent = n.slab[off : off+ne : off+ne]
		off += ne
	}
}

// absent is the old value of a new entry's scalars. No fold ever holds
// NaN, so the walk never takes the new kid for the holder of a fold.
var absent = math.NaN()

// countMove is one count coordinate's change at a kid: its value before a
// write and after it.
type countMove struct {
	idx      int32
	old, new float64
}

// scalars returns the fields of s that folds keep: the Pl and Ps maxima,
// then the ProdTotal and EntTotal minima.
func (s *Signature) scalars() [4]float64 {
	return [4]float64{s.Pl, s.Ps, s.ProdTotal, s.EntTotal}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// appendMoves appends, in ascending order, a move for each coordinate at
// which next differs from prev bit for bit, reading an unlisted coordinate
// as +0.
func appendMoves(moves []countMove, prev, next []Coord) []countMove {
	i, j := 0, 0
	for i < len(prev) || j < len(next) {
		var m countMove
		switch {
		case j == len(next) || (i < len(prev) && prev[i].Idx < next[j].Idx):
			m = countMove{prev[i].Idx, prev[i].Val, 0}
			i++
		case i == len(prev) || next[j].Idx < prev[i].Idx:
			m = countMove{next[j].Idx, 0, next[j].Val}
			j++
		default:
			m = countMove{next[j].Idx, prev[i].Val, next[j].Val}
			i++
			j++
		}
		if !sameBits(m.old, m.new) {
			moves = append(moves, m)
		}
	}
	return moves
}

// deltaWalk restores the aggregates from leaf node n to the root after
// one of n's kids, kid, changed: its scalars from old, its counts as
// t.prodMoves and t.entMoves list. Each level folds every moved field's
// (old, new) pair into its aggregate with passFold, refolding over the
// level's kids only the fields passFold cannot tell, and hands its own
// aggregate's moves to the parent. The walk stops at the first node whose
// aggregate did not change at all.
func (t *Tree) deltaWalk(n *node, kid *Signature, old [4]float64) {
	prod, ent := t.prodMoves, t.entMoves
	for ; n != nil; n = n.parent {
		prev := n.sig.scalars()
		changed := foldScalarMoves(n, old, kid.scalars())
		prod = foldCountMoves(n, prod, false)
		ent = foldCountMoves(n, ent, true)
		if !changed && len(prod) == 0 && len(ent) == 0 {
			break
		}
		kid, old = &n.sig, prev
	}
	t.prodMoves, t.entMoves = prod, ent
}

// passFold returns the fold of a field over a level's kids after one kid's
// value moved from old to new, given a, the fold before: a maximum (max)
// or a minimum, in kid order from the identity with widenMax or
// narrowMin. Such a fold is the identity if no kid strictly passes it,
// and otherwise the bits of the first kid holding the extreme value. So
// when new strictly passes a, it passes every other kid and is the fold.
// When the kid did not hold a's value (old != a, NaN included), the fold
// stays a: its holder is unchanged, or new ties it with a's very bits.
// Otherwise — the kid may have held the fold, or new ties a with other
// bits (±0) — ok is false and the field must be refolded over the kids.
func passFold(a, old, new float64, max bool) (fold float64, ok bool) {
	if max && new > a || !max && new < a {
		return new, true
	}
	if old != a {
		return a, new != a || sameBits(new, a)
	}
	return a, false
}

// foldScalarMoves folds a kid's scalars' move from old to new into n's
// aggregate and reports whether any of the four changed bit for bit.
func foldScalarMoves(n *node, old, new [4]float64) bool {
	s := &n.sig
	cur := s.scalars()
	next := cur
	for f := range next {
		if sameBits(old[f], new[f]) {
			continue
		}
		v, ok := passFold(cur[f], old[f], new[f], f < 2)
		if !ok {
			return refoldScalars(n)
		}
		next[f] = v
	}
	for f := range next {
		if !sameBits(next[f], cur[f]) {
			s.Pl, s.Ps, s.ProdTotal, s.EntTotal = next[0], next[1], next[2], next[3]
			s.stampLogs()
			return true
		}
	}
	return false
}

// foldCountMoves folds a kid's ascending count moves into n's producer
// (ent=false) or entity count maxima and returns, compacted in place, the
// moves of n's own maxima: those that changed bit for bit. It reads a
// maximum from the dense vector when n has one and seeks the list only to
// write a maximum that moved. A maximum that falls to +0 leaves the list,
// one that rises from +0 joins it, and a dense vector follows every
// change.
func foldCountMoves(n *node, moves []countMove, ent bool) []countMove {
	agg, vec := n.sig.coords(ent), n.vec(ent)
	kept := moves[:0]
	from := 0 // no coordinate still to visit lies before it in the list
	for _, m := range moves {
		var a float64
		pos := -1
		if v := *vec; v != nil {
			if int(m.idx) < len(v) {
				a = v[m.idx]
			}
		} else {
			pos = from + seekIdx((*agg)[from:], m.idx)
			from = pos
			if pos < len(*agg) && (*agg)[pos].Idx == m.idx {
				a = (*agg)[pos].Val
			}
		}
		fold, ok := passFold(a, m.old, m.new, true)
		if !ok {
			fold = foldAt(n, ent, m.idx)
		}
		if sameBits(fold, a) {
			continue
		}
		if pos < 0 {
			pos = from + seekIdx((*agg)[from:], m.idx)
		}
		switch {
		case sameBits(fold, 0): // a ≠ +0, so it was listed
			*agg = slices.Delete(*agg, pos, pos+1)
			from = pos
		case sameBits(a, 0):
			*agg = slices.Insert(*agg, pos, Coord{Idx: m.idx, Val: fold})
			from = pos + 1
		default:
			(*agg)[pos].Val = fold
			from = pos + 1
		}
		if *vec != nil {
			*vec = growTo(*vec, int(m.idx)+1)
			(*vec)[m.idx] = fold
		}
		kept = append(kept, countMove{m.idx, a, fold})
	}
	if len(kept) > 0 && *vec == nil && wantsVec(*agg) {
		n.syncVec(ent)
	}
	return kept
}

// foldAt folds the producer or entity counts of n's kids at idx with
// widenMax, from +0 and in kid order.
func foldAt(n *node, ent bool, idx int32) float64 {
	var m float64
	for k := range n.kids() {
		m = widenMax(m, n.kidCount(k, ent, idx))
	}
	return m
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
	if changed {
		s.Pl, s.Ps, s.ProdTotal, s.EntTotal = agg.Pl, agg.Ps, agg.ProdTotal, agg.EntTotal
		s.stampLogs()
	}
	return changed
}

// recomputeSig refolds n's aggregate from scratch over all its kids — the
// structural paths' refresh (Delete, splits) and the oracle deltaWalk
// must reproduce bit for bit. It reuses
// the node's own list buffers (kids never share them), so a warm refold
// does not allocate.
func (t *Tree) recomputeSig(n *node) {
	agg := emptyAgg()
	for i := range n.kids() {
		foldScalars(&agg, n.kidSig(i))
	}
	agg.stampLogs()
	if cap(t.cursors) < n.kids() {
		t.cursors = make([]int, n.kids())
	}
	cur := t.cursors[:n.kids()]
	agg.Prod = foldCounts(n.sig.Prod[:0], cur, n, false)
	agg.Ent = foldCounts(n.sig.Ent[:0], cur, n, true)
	n.sig = agg
	n.syncVec(false)
	n.syncVec(true)
}

// foldCounts appends to dst the k-way merge of n's kids' producer or
// entity lists: at each listed index the widenMax fold, from +0, of the
// kids' counts, kept only when it is not +0.
func foldCounts(dst []Coord, cur []int, n *node, ent bool) []Coord {
	clear(cur)
	for {
		var next int32
		found := false
		for k := range cur {
			if cs := *n.kidSig(k).coords(ent); cur[k] < len(cs) && (!found || cs[cur[k]].Idx < next) {
				next, found = cs[cur[k]].Idx, true
			}
		}
		if !found {
			return dst
		}
		var m float64
		for k := range cur {
			if cs := *n.kidSig(k).coords(ent); cur[k] < len(cs) && cs[cur[k]].Idx == next {
				m = widenMax(m, cs[cur[k]].Val)
				cur[k]++
			}
		}
		if math.Float64bits(m) != 0 {
			dst = append(dst, Coord{Idx: next, Val: m})
		}
	}
}

func (t *Tree) propagateUp(n *node) {
	for ; n != nil; n = n.parent {
		t.recomputeSig(n)
	}
}

// expansionCost estimates how much n's aggregate must widen to dominate
// sig: the sum of count increases plus (heavily weighted) probability
// increases and total decreases. Lower cost = better fit. The count
// increases are summed over sig's listed coordinates in ascending index
// order — the order a dense walk adds them in, since an unlisted
// coordinate (+0) never exceeds an aggregate.
func expansionCost(n *node, sig *Signature) float64 {
	var cost float64
	for _, ent := range []bool{false, true} {
		for _, c := range *sig.coords(ent) {
			if cur := n.count(ent, c.Idx); c.Val > cur {
				cost += c.Val - cur
			}
		}
	}
	agg := &n.sig
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

// handover gives the left half of a split n's buffers: its slab and its
// aggregate's lists and vectors, which the split drops with n. Repacking
// the left half stages its lists through t.packing and rewrites only the
// slab's prefix, where they already lay, so the right half's lists further
// on stay intact until it repacks into a slab of its own; recomputeSig
// reads only the kids, so it may refill n's lists.
func handover(n, left *node) {
	left.slab = n.slab[:0]
	left.sig.Prod, left.sig.Ent = n.sig.Prod[:0], n.sig.Ent[:0]
	left.prodVec, left.entVec = n.prodVec, n.entVec
}

func (t *Tree) splitLeaf(n *node) {
	half := len(n.entries) / 2
	left := &node{leaf: true, entries: n.entries[:half:half], parent: n.parent}
	right := &node{leaf: true, entries: slices.Clone(n.entries[half:]), parent: n.parent}
	handover(n, left)
	for _, half := range []*node{left, right} {
		for i := range half.entries {
			t.byUser[half.entries[i].UserID] = slot{half, i}
		}
		half.size = len(half.entries)
		t.repack(half, -1, nil)
		t.recomputeSig(half)
	}
	t.replaceChild(n, left, right)
}

func (t *Tree) splitInternal(n *node) {
	half := len(n.children) / 2
	left := &node{children: n.children[:half:half], parent: n.parent}
	right := &node{children: append([]*node(nil), n.children[half:]...), parent: n.parent}
	handover(n, left)
	for _, half := range []*node{left, right} {
		for _, c := range half.children {
			c.parent = half
			half.size += c.size
		}
		t.recomputeSig(half)
	}
	t.replaceChild(n, left, right)
}

// replaceChild swaps n for (left, right) under n's parent, growing a new
// root if n was the root, and splits the parent if it overflows. The
// halves fold the same leaves as n did, in the same order, so no ancestor
// aggregate changes: max is order-free and min keeps the first minimum.
func (t *Tree) replaceChild(n, left, right *node) {
	p := n.parent
	if p == nil {
		newRoot := &node{children: []*node{left, right}, size: n.size}
		left.parent, right.parent = newRoot, newRoot
		t.recomputeSig(newRoot)
		t.root = newRoot
		return
	}
	pos := slices.Index(p.children, n)
	rebuilt := make([]*node, 0, len(p.children)+1)
	rebuilt = append(rebuilt, p.children[:pos]...)
	rebuilt = append(rebuilt, left, right)
	rebuilt = append(rebuilt, p.children[pos+1:]...)
	p.children = rebuilt
	if len(p.children) > t.fanout {
		t.splitInternal(p)
	}
}

// Delete removes a user's leaf entry and refreshes ancestor aggregates.
// Empty leaf nodes are left in place (they are cheap and splits stay
// balanced); their aggregates become the fold identity. Returns false if
// the user is absent.
func (t *Tree) Delete(userID string) bool {
	n, i := t.entry(userID)
	if n == nil {
		return false
	}
	n.entries = slices.Delete(n.entries, i, i+1)
	for a := n; a != nil; a = a.parent {
		a.size--
	}
	delete(t.byUser, userID)
	for k := i; k < len(n.entries); k++ {
		t.byUser[n.entries[k].UserID] = slot{n, k}
	}
	t.repack(n, -1, nil)
	t.propagateUp(n)
	return true
}

// RootScore returns the upper-bound score of the whole tree for a query —
// the priority of the tree's root in Algorithm 1.
func (t *Tree) RootScore(q *Query) float64 {
	if t.Len() == 0 {
		return math.Inf(-1)
	}
	return t.root.score(q)
}

// Depth returns the height of the tree (1 = single leaf node).
func (t *Tree) Depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}
