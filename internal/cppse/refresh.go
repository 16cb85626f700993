// refresh.go is the write-path counterpart of encode.go: the pooled,
// mask-aware per-user index refresh of Algorithm 2. UpdateUserCats is
// UpdateUser restricted by a dirty-category mask (core's per-user masks):
// routing metadata still advances for every category the user inhabits —
// every shard must route candidates identically — but the expensive leaf
// rebuild runs only where the mask says the counts changed. Non-dirty
// leaves are restamped with fresh Pl/Ps, because every observation grows
// the short-term window and therefore shifts the short-term prediction
// for ALL of the user's categories. See DESIGN.md, "Ingest hot path".
package cppse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"ssrec/internal/profile"
	"ssrec/internal/shx"
	"ssrec/internal/sigtree"
)

// refreshScratch carries the reusable buffers of one UpdateUserCats call:
// the sorted category/producer/entity name slices and the signature lists
// of the (user, category) being rebuilt. Trees copy a signature's lists on
// every write, so the scratch is never retained.
type refreshScratch struct {
	cats  []string
	prods []string
	ents  []string
	sig   sigtree.Signature
}

var refreshPool = sync.Pool{New: func() any { return new(refreshScratch) }}

func getRefreshScratch() *refreshScratch { return refreshPool.Get().(*refreshScratch) }

func putRefreshScratch(sc *refreshScratch) {
	// Drop string references so idle scratches don't pin profile data.
	clearStrings(&sc.cats)
	clearStrings(&sc.prods)
	clearStrings(&sc.ents)
	refreshPool.Put(sc)
}

func clearStrings(s *[]string) {
	*s = (*s)[:cap(*s)]
	clear(*s)
	*s = (*s)[:0]
}

// leafSignatureInto encodes a user's statistics for one tree into pooled
// scratch: the producer and entity counts the profile holds, as Coords
// sorted by universe index — no pass over the universe. Profile counts
// are positive integers, so every listed count is positive and every
// unlisted one is the +0 a sparse list reads. The returned signature
// aliases sc and is only valid until the next use of sc; trees copy it.
func (ix *Index) leafSignatureInto(sc *refreshScratch, p *profile.Profile, block int, cat string) *sigtree.Signature {
	prodU := ix.prodUni[block]
	sig := &sc.sig
	sig.Pl = ix.probs.Long(p.UserID, cat)
	sig.Ps = ix.probs.Short(p.UserID, cat)
	sig.ProdTotal = float64(p.ProducerTotal())
	sig.EntTotal = float64(p.EntityTotal(cat))
	sig.Prod = sig.Prod[:0]
	sc.prods = p.AppendProducers(sc.prods[:0])
	for _, up := range sc.prods {
		if i, ok := prodU.Index(up); ok {
			sig.Prod = appendCount(sig.Prod, i, p.ProducerCount(up))
		}
	}
	slices.SortFunc(sig.Prod, byIdx)
	sig.Ent = sig.Ent[:0]
	if tr := ix.trees[treeKey{block, cat}]; tr != nil {
		sc.ents = p.AppendEntitiesIn(cat, sc.ents[:0])
		for _, e := range sc.ents {
			if i, ok := tr.Ent.Index(e); ok {
				sig.Ent = appendCount(sig.Ent, i, p.EntityCount(cat, e))
			}
		}
		slices.SortFunc(sig.Ent, byIdx)
	}
	return sig
}

// appendCount lists count n at universe index i unless it is zero.
func appendCount(cs []sigtree.Coord, i, n int) []sigtree.Coord {
	if n == 0 {
		return cs
	}
	return append(cs, sigtree.Coord{Idx: int32(i), Val: float64(n)})
}

func byIdx(a, b sigtree.Coord) int { return cmp.Compare(a.Idx, b.Idx) }

// UpdateUserCats refreshes one user's index entries under a dirty-category
// mask — the per-user body of Algorithm 2, split into its two halves:
//
// Routing metadata (always, for EVERY category the user inhabits): block
// assignment, producer-universe growth, entity-universe growth and hash
// insertion. Shards replicate this on every engine regardless of
// ownership, so it must not depend on the mask — otherwise two shards
// could route the same query to different candidate trees.
//
// Leaf maintenance (owned users only): categories in dirtyCats — plus
// every category when allDirty, e.g. after a window roll moved events
// into long-term state — get a full signature rebuild; categories whose
// counts are provably unchanged get only a Pl/Ps restamp (the short-term
// prediction changes on every observation). A category the user inhabits
// but has no leaf for is treated as dirty regardless of the mask (a
// removed-then-reobserved user must be re-inserted everywhere).
//
// UpdateUserCats(id, nil, true) is exactly UpdateUser.
func (ix *Index) UpdateUserCats(userID string, dirtyCats []string, allDirty bool) error {
	p, ok := ix.store.Lookup(userID)
	if !ok {
		return fmt.Errorf("cppse: unknown user %q", userID)
	}
	block, known := ix.userBlock[userID]
	if !known {
		block = ix.nearestBlock(p)
		ix.userBlock[userID] = block
	}
	sc := getRefreshScratch()
	defer putRefreshScratch(sc)

	prodU := ix.prodUni[block]
	sc.prods = p.AppendProducers(sc.prods[:0])
	sort.Strings(sc.prods)
	for _, up := range sc.prods {
		prodU.Add(up)
	}

	// Inhabited categories: long-term ∪ window, sorted and deduplicated —
	// the same set (and growth order) UpdateUser has always used.
	sc.cats = p.AppendCategories(sc.cats[:0])
	sc.cats = p.AppendWindowCategories(sc.cats)
	sort.Strings(sc.cats)
	w := 0
	for i, c := range sc.cats {
		if i == 0 || c != sc.cats[i-1] {
			sc.cats[w] = c
			w++
		}
	}
	sc.cats = sc.cats[:w]

	owned := ix.owns(userID)
	for _, cat := range sc.cats {
		key := treeKey{block, cat}
		tr := ix.trees[key]
		if tr == nil {
			tr = sigtree.New(block, cat, prodU, sigtree.NewUniverse(nil), ix.cfg.Fanout)
			ix.trees[key] = tr
			ix.treesByCat[cat] = append(ix.treesByCat[cat], tr)
		}
		// Unseen entities: extend universe + hash (Algorithm 2 lines 5-9).
		sc.ents = p.AppendEntitiesIn(cat, sc.ents[:0])
		sort.Strings(sc.ents)
		for _, e := range sc.ents {
			if _, ok := tr.Ent.Index(e); !ok {
				tr.Ent.Add(e)
				ix.hash.Insert(shx.PairKey(cat, e), tr)
			}
		}
		if !owned {
			continue
		}
		if allDirty || containsString(dirtyCats, cat) || !tr.Has(userID) {
			sig := ix.leafSignatureInto(sc, p, block, cat)
			if !tr.UpdateCopy(userID, sig) {
				tr.Insert(userID, *sig)
			}
		} else {
			tr.UpdateProbs(userID, ix.probs.Long(userID, cat), ix.probs.Short(userID, cat))
		}
	}
	return nil
}

// containsString is a linear membership test — dirty masks hold a handful
// of categories, far below the crossover where a set would win.
func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
