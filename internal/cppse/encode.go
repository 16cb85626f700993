// encode.go is the zero-allocation query encoder of the CPPse-index hot
// path: one pooled queryScratch per in-flight Recommend call replaces the
// per-(item,tree) map/sort/slice churn of the naive encoding. See
// DESIGN.md, "Zero-allocation query core".
package cppse

import (
	"slices"
	"sync"

	"ssrec/internal/ranking"
	"ssrec/internal/shx"
	"ssrec/internal/sigtree"
)

// queryScratch carries every reusable buffer of one Recommend call: the
// candidate-tree dedup set, the encoded per-tree queries (value slab),
// an arena for their sparse entity lists, and a stamped dense accumulator
// for entity-weight folding. Instances are pooled; all buffers retain
// capacity across queries.
type queryScratch struct {
	seen    map[*sigtree.Tree]bool
	trees   []*sigtree.Tree
	tqs     []sigtree.TreeQuery
	queries []sigtree.Query       // value slab; tqs point into it
	arena   []sigtree.WeightedIdx // backing for all queries' Ents
	weights []float64             // backing for all queries' EntW
	dense   []float64             // entity-weight accumulator, indexed by universe idx
	stamp   []int                 // dense[i] is valid iff stamp[i] == epoch
	touched []int
	epoch   int
}

var scratchPool = sync.Pool{New: func() any {
	return &queryScratch{seen: make(map[*sigtree.Tree]bool)}
}}

// getScratch / putScratch bracket one query's scratch use; putScratch
// centralizes the release-before-Put invariant (defer it at every Get).
func getScratch() *queryScratch { return scratchPool.Get().(*queryScratch) }

func putScratch(sc *queryScratch) {
	sc.release()
	scratchPool.Put(sc)
}

func (sc *queryScratch) reset() {
	clear(sc.seen)
	sc.trees = sc.trees[:0]
	sc.tqs = sc.tqs[:0]
	sc.queries = sc.queries[:0]
	sc.arena = sc.arena[:0]
	sc.weights = sc.weights[:0]
}

// release drops every index reference (tree pointers in the dedup set,
// candidate slice and encoded queries) before the scratch returns to the
// pool, so idle scratches don't pin replaced index structures after a
// RebuildIndex — the same guarantee Searcher.Run gives for its slab.
func (sc *queryScratch) release() {
	clear(sc.seen)
	sc.trees = sc.trees[:cap(sc.trees)]
	clear(sc.trees)
	sc.trees = sc.trees[:0]
	sc.tqs = sc.tqs[:cap(sc.tqs)]
	clear(sc.tqs)
	sc.tqs = sc.tqs[:0]
	sc.queries = sc.queries[:cap(sc.queries)]
	clear(sc.queries)
	sc.queries = sc.queries[:0]
	sc.arena = sc.arena[:0]
}

// lookupTreesInto locates candidate trees for a query into sc.trees. The
// primary path is the paper's: the chained hash table over the query's
// ⟨category, entity⟩ pairs. It is complemented by producer routing —
// trees of the item's category whose block has browsed the item's
// producer — because the ranking function (Eq. 2) scores producer
// affinity as strongly as entity affinity, and at laptop-scale
// vocabularies the entity hash alone would spuriously skip whole blocks
// that the paper's 54k-entity vocabulary would always match (see
// DESIGN.md, implementation refinements).
func (ix *Index) lookupTreesInto(sc *queryScratch, q ranking.ItemQuery) {
	add := func(tr *sigtree.Tree) {
		if !sc.seen[tr] {
			sc.seen[tr] = true
			sc.trees = append(sc.trees, tr)
		}
	}
	for _, we := range q.Entities {
		for _, ptr := range ix.hash.Lookup(shx.PairKey(q.Category, we.Name)) {
			add(ptr.(*sigtree.Tree))
		}
	}
	for _, tr := range ix.treesByCat[q.Category] {
		if _, ok := tr.Prod.Index(q.Producer); ok {
			add(tr)
		}
	}
}

// encodeAll produces the pseudo-queries of the paper's Example 1 for every
// candidate tree of the item. The user-independent background masses
// (BgProd, BgEnt) do not depend on the tree, so they are computed once per
// item instead of once per (item, tree); the per-tree work is only the
// producer-index lookup and the sparse entity projection, folded through
// the stamped dense accumulator (no maps, no per-tree allocations in
// steady state).
func (ix *Index) encodeAll(sc *queryScratch, q ranking.ItemQuery) []sigtree.TreeQuery {
	sc.reset()
	ix.lookupTreesInto(sc, q)
	if len(sc.trees) == 0 {
		return nil
	}
	bgProd := ix.bg.ProducerProb(q.Producer)
	var bgEnt float64
	for _, we := range q.Entities {
		bgEnt += we.Weight * ix.bg.EntityProb(q.Category, we.Name)
	}
	for _, tr := range sc.trees {
		sq := sigtree.Query{
			ProdIdx: -1,
			BgProd:  bgProd,
			BgEnt:   bgEnt,
			Mu:      ix.cfg.Mu,
			LambdaS: ix.cfg.LambdaS,
		}
		if i, ok := tr.Prod.Index(q.Producer); ok {
			sq.ProdIdx = i
		}
		if n := tr.Ent.Len(); n > len(sc.dense) {
			sc.dense = append(sc.dense, make([]float64, n-len(sc.dense))...)
			sc.stamp = append(sc.stamp, make([]int, n-len(sc.stamp))...)
		}
		sc.epoch++
		sc.touched = sc.touched[:0]
		for _, we := range q.Entities {
			if i, ok := tr.Ent.Index(we.Name); ok {
				if sc.stamp[i] != sc.epoch {
					sc.stamp[i] = sc.epoch
					sc.dense[i] = 0
					sc.touched = append(sc.touched, i)
				}
				sc.dense[i] += we.Weight
			}
		}
		// Deterministic (index-ascending) summation order so repeated
		// encodings of the same item produce bit-identical scores.
		slices.Sort(sc.touched)
		start := len(sc.arena)
		for _, i := range sc.touched {
			sc.arena = append(sc.arena, sigtree.WeightedIdx{Idx: i, W: sc.dense[i]})
		}
		// Full slice expression: later arena growth must copy, not clobber.
		sq.Ents = sc.arena[start:len(sc.arena):len(sc.arena)]
		start = len(sc.weights)
		sc.weights = sigtree.AppendEntWeights(sc.weights, sq.Ents)
		sq.EntW = sc.weights[start:len(sc.weights):len(sc.weights)]
		sc.queries = append(sc.queries, sq)
	}
	for i, tr := range sc.trees {
		sc.tqs = append(sc.tqs, sigtree.TreeQuery{Tree: tr, Query: &sc.queries[i]})
	}
	return sc.tqs
}
