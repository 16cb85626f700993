package sigtree

import (
	"fmt"
	"math"
	"slices"
)

// Diff returns the first difference between trees a and b, or nil when
// they are the same tree: the same universes and fanout, the same shape,
// the same entries in the same order, every leaf signature and aggregate
// equal bit for bit (cached logarithms and dense vectors included), every
// user's recorded leaf node and position naming the entry, and every leaf
// node's slab holding the same counts with its entries' lists packed back
// to back in it. It is the oracle for code that builds one tree in more
// than one way, such as cppse's parallel build.
func Diff(a, b *Tree) error {
	if a.BlockID != b.BlockID || a.Category != b.Category || a.fanout != b.fanout {
		return fmt.Errorf("tree ⟨%d, %s⟩ fanout %d, other ⟨%d, %s⟩ fanout %d",
			a.BlockID, a.Category, a.fanout, b.BlockID, b.Category, b.fanout)
	}
	if !slices.Equal(a.Prod.Names(), b.Prod.Names()) || !slices.Equal(a.Ent.Names(), b.Ent.Names()) {
		return fmt.Errorf("tree ⟨%d, %s⟩: universes differ", a.BlockID, a.Category)
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("tree ⟨%d, %s⟩: %d users, other %d", a.BlockID, a.Category, a.Len(), b.Len())
	}
	if err := diffNodes(a, b, a.root, b.root, "root"); err != nil {
		return fmt.Errorf("tree ⟨%d, %s⟩: %w", a.BlockID, a.Category, err)
	}
	return nil
}

func diffNodes(ta, tb *Tree, a, b *node, path string) error {
	if a.leaf != b.leaf || a.size != b.size || a.kids() != b.kids() {
		return fmt.Errorf("%s: leaf %v size %d kids %d, other leaf %v size %d kids %d",
			path, a.leaf, a.size, a.kids(), b.leaf, b.size, b.kids())
	}
	if err := diffSigs(&a.sig, &b.sig); err != nil {
		return fmt.Errorf("%s aggregate: %w", path, err)
	}
	if !sameVec(a.prodVec, b.prodVec) || !sameVec(a.entVec, b.entVec) {
		return fmt.Errorf("%s: dense vectors differ", path)
	}
	if !a.leaf {
		for i := range a.children {
			if err := diffNodes(ta, tb, a.children[i], b.children[i], fmt.Sprintf("%s/%d", path, i)); err != nil {
				return err
			}
		}
		return nil
	}
	if !slices.EqualFunc(a.slab, b.slab, sameCoord) {
		return fmt.Errorf("%s: slabs differ", path)
	}
	for i := range a.entries {
		ea, eb := &a.entries[i], &b.entries[i]
		if ea.UserID != eb.UserID || ta.byUser[ea.UserID] != (slot{a, i}) || tb.byUser[eb.UserID] != (slot{b, i}) {
			return fmt.Errorf("%s entry %d: user %s, other %s", path, i, ea.UserID, eb.UserID)
		}
		if err := diffSigs(&ea.Sig, &eb.Sig); err != nil {
			return fmt.Errorf("%s entry %s: %w", path, ea.UserID, err)
		}
	}
	for _, n := range []*node{a, b} {
		off := 0
		for _, e := range n.entries {
			for _, l := range [][]Coord{e.Sig.Prod, e.Sig.Ent} {
				if len(l) > 0 && (&l[0] != &n.slab[off] || cap(l) != len(l)) {
					return fmt.Errorf("%s: %s's lists are not packed in the slab", path, e.UserID)
				}
				off += len(l)
			}
		}
	}
	return nil
}

func diffSigs(a, b *Signature) error {
	for _, f := range [][2]float64{{a.Pl, b.Pl}, {a.Ps, b.Ps}, {a.ProdTotal, b.ProdTotal},
		{a.EntTotal, b.EntTotal}, {a.logPl, b.logPl}, {a.logPs, b.logPs}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return fmt.Errorf("scalars %v/%v/%v/%v, other %v/%v/%v/%v",
				a.Pl, a.Ps, a.ProdTotal, a.EntTotal, b.Pl, b.Ps, b.ProdTotal, b.EntTotal)
		}
	}
	if !slices.EqualFunc(a.Prod, b.Prod, sameCoord) || !slices.EqualFunc(a.Ent, b.Ent, sameCoord) {
		return fmt.Errorf("counts %v %v, other %v %v", a.Prod, a.Ent, b.Prod, b.Ent)
	}
	return nil
}

func sameCoord(x, y Coord) bool {
	return x.Idx == y.Idx && math.Float64bits(x.Val) == math.Float64bits(y.Val)
}

func sameVec(a, b []float64) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}
