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
	"sync"

	"ssrec/internal/profile"
	"ssrec/internal/shx"
	"ssrec/internal/sigtree"
)

// refreshScratch carries the reusable buffers of one RefreshUser call:
// the ids a universe lacks, the user's probability rows once fetched, and
// the signature lists of the (user, category) being rebuilt. Trees copy a
// signature's lists on every write, so the scratch is never retained.
type refreshScratch struct {
	missing []int32

	user        string
	rowsOK      bool
	long, short []float64
	rowBuf      []float64

	sig sigtree.Signature
}

// forUser points the scratch at a user whose rows are not yet fetched.
func (sc *refreshScratch) forUser(userID string) {
	sc.user, sc.rowsOK = userID, false
}

var refreshPool = sync.Pool{New: func() any { return new(refreshScratch) }}

func getRefreshScratch() *refreshScratch { return refreshPool.Get().(*refreshScratch) }

func putRefreshScratch(sc *refreshScratch) {
	// Drop references so idle scratches don't pin a user or its rows.
	sc.user, sc.long, sc.short = "", nil, nil
	refreshPool.Put(sc)
}

// leafSignatureInto encodes a user's statistics for tree tr, whose
// category's record in p is cs, into pooled scratch: the producer and
// entity counts the profile holds, as Coords sorted by universe position
// — no pass over the universe. Profile counts are positive integers, so
// every listed count is positive and every unlisted one is the +0 a
// sparse list reads. The returned signature aliases sc and is only valid
// until the next use of sc; trees copy it.
func (ix *Index) leafSignatureInto(sc *refreshScratch, p *profile.Profile, cs *profile.CategoryStats, tr *sigtree.Tree, pl, ps float64) *sigtree.Signature {
	sig := &sc.sig
	sig.Pl, sig.Ps = pl, ps
	sig.ProdTotal = float64(p.ProducerTotal())
	sig.EntTotal = float64(cs.EntTotal)
	sig.Prod = appendCoords(sig.Prod[:0], tr.Prod, p.ProducerCounts())
	sig.Ent = appendCoords(sig.Ent[:0], tr.Ent, cs.Ents)
	return sig
}

// appendCoords lists the counts u holds a position for, sorted by
// position.
func appendCoords(dst []sigtree.Coord, u *sigtree.Universe, counts []profile.IDCount) []sigtree.Coord {
	for _, c := range counts {
		if i, ok := u.Pos(c.ID); ok {
			dst = append(dst, sigtree.Coord{Idx: int32(i), Val: float64(c.N)})
		}
	}
	slices.SortFunc(dst, byIdx)
	return dst
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
// Elsewhere the full pass would add nothing. A pass checks each of the
// user's ids against the universe and adds only the missing ones, sorted
// by name: the positions a sorted pass over every name would give.
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
		sc.missing = addMissing(prodU, p.ProducerCounts(), sc.missing)
	}

	// Inhabited categories (long-term ∪ window), by name — the set and
	// growth order UpdateUser has always used.
	owned := ix.owns(userID)
	sc.forUser(userID)
	cats := p.ActiveCategories()
	for i := range cats {
		cs := &cats[i]
		tr := ix.tree(block, cs.ID)
		created := tr == nil
		if created {
			tab := ix.names.Ents(cs.ID)
			tr = sigtree.New(block, ix.names.Cats.Name(cs.ID), prodU, sigtree.NewUniverse(tab, nil), ix.cfg.Fanout)
			ix.addTree(tr, cs.ID)
		}
		// Unseen entities: extend universe + hash (Algorithm 2 lines 5-9).
		if grow || created || ix.catPos(cs.ID) < 0 {
			sc.missing = addMissing(tr.Ent, cs.Ents, sc.missing)
			for _, id := range sc.missing {
				ix.hash.Insert(shx.PairKey(tr.Category, tr.Ent.Name(id)), tr)
			}
		}
		if !owned {
			continue
		}
		pl, ps := ix.leafProbs(sc, cs.ID)
		if !rolled && tr.UpdateProbs(userID, pl, ps) {
			continue
		}
		sig := ix.leafSignatureInto(sc, p, cs, tr, pl, ps)
		if !tr.UpdateCopy(userID, sig) {
			tr.Insert(userID, *sig)
		}
	}
	return nil
}
