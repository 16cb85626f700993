// refresh.go is the write-path counterpart of encode.go: the pooled
// per-user index refresh of Algorithm 2. RefreshUser is UpdateUser
// restricted to what a refresh can find changed: leaf counts and the
// user's universe names move only when the short-term window rolls into
// long-term state, so between rolls a refresh only creates trees for
// newly inhabited categories and restamps every leaf with fresh Pl/Ps
// (every observation grows the window and so shifts the short-term
// prediction for ALL of the user's categories). See DESIGN.md, "Ingest
// hot path".
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

// refreshScratch carries the reusable buffers of one RefreshUser call:
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

// RefreshUser refreshes one user's index entries — the per-user body of
// Algorithm 2 — doing only what the observations since the user's last
// refresh can have changed. rolled reports whether the user's short-term
// window rolled since then: a roll is the only event that moves long-term
// state, and every count a leaf lists (ProducerTotal, EntityTotal, the
// per-name counts and their key sets) is long-term only.
//
// Routing metadata — block assignment, tree creation for every category
// the user inhabits, producer- and entity-universe growth and hash
// insertion — runs on every shard regardless of ownership, so every shard
// routes candidates identically. Universes only grow, so the user's names
// can be missing from one only where the key sets moved or the universe
// is new to this user: the producer pass runs after a roll or a fresh
// block assignment (a new user, or one RemoveUser dropped), and a
// category's entity pass additionally when this refresh created its tree
// or the category is unconfigured (a build makes trees only for
// configured categories, so after one, the names of a block's other users
// in an unconfigured category arrive only with their own refreshes).
// Elsewhere the full pass would add nothing.
//
// Leaf maintenance (owned users only): without a roll no listed count
// moved, so each inhabited category's leaf only gets its Pl/Ps restamped
// (the short-term window grew, shifting the prediction); a roll, or a
// missing leaf, rebuilds the signature.
//
// RefreshUser(id, true) is exactly UpdateUser.
func (ix *Index) RefreshUser(userID string, rolled bool) error {
	p, ok := ix.store.Lookup(userID)
	if !ok {
		return fmt.Errorf("cppse: unknown user %q", userID)
	}
	block, known := ix.userBlock[userID]
	if !known {
		block = ix.nearestBlock(p)
		ix.userBlock[userID] = block
	}
	grow := rolled || !known
	sc := getRefreshScratch()
	defer putRefreshScratch(sc)

	prodU := ix.prodUni[block]
	if grow {
		sc.prods = p.AppendProducers(sc.prods[:0])
		sort.Strings(sc.prods)
		for _, up := range sc.prods {
			prodU.Add(up)
		}
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
		created := tr == nil
		if created {
			tr = sigtree.New(block, cat, prodU, sigtree.NewUniverse(nil), ix.cfg.Fanout)
			ix.trees[key] = tr
			ix.treesByCat[cat] = append(ix.treesByCat[cat], tr)
		}
		// Unseen entities: extend universe + hash (Algorithm 2 lines 5-9).
		if grow || created || !slices.Contains(ix.cfg.Categories, cat) {
			sc.ents = p.AppendEntitiesIn(cat, sc.ents[:0])
			sort.Strings(sc.ents)
			for _, e := range sc.ents {
				if _, ok := tr.Ent.Index(e); !ok {
					tr.Ent.Add(e)
					ix.hash.Insert(shx.PairKey(cat, e), tr)
				}
			}
		}
		if !owned {
			continue
		}
		if !rolled && tr.UpdateProbs(userID, ix.probs.Long(userID, cat), ix.probs.Short(userID, cat)) {
			continue
		}
		sig := ix.leafSignatureInto(sc, p, block, cat)
		if !tr.UpdateCopy(userID, sig) {
			tr.Insert(userID, *sig)
		}
	}
	return nil
}
