// Package cppse assembles the CPPse-index of Zhou et al. (ICDE 2019, §V):
// a chained shift-add-xor hash table over category–entity pairs (package
// shx) pointing into extended signature trees (package sigtree), one per
// ⟨user block, category⟩, with user blocks produced by one-pass clustering
// over long-term categorical interests (package cluster).
//
// The index answers top-k user queries for incoming items (Algorithm 1 via
// sigtree.Search) and supports the dynamic maintenance of Algorithm 2:
// profile updates, unseen entities (hash + universe growth) and new users
// (nearest-block assignment).
package cppse

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ssrec/internal/cluster"
	"ssrec/internal/model"
	"ssrec/internal/profile"
	"ssrec/internal/ranking"
	"ssrec/internal/shx"
	"ssrec/internal/sigtree"
)

// hashBuckets sizes the chained table of every index.
const hashBuckets = 1 << 12

// Config parameterises index construction.
type Config struct {
	Categories []string
	// LambdaS balances short- vs long-term relevance (Eq. 3). Default 0.4.
	LambdaS float64
	// Mu is the Dirichlet pseudo-count of the smoothed MLEs. Default 10.
	Mu float64
	// SimThreshold is the one-pass clustering threshold. Default 0.6.
	SimThreshold float64
	// MaxBlocks caps the number of user blocks. Default 20.
	MaxBlocks int
	// FixedBlocks, when > 0, forces (approximately) that many blocks via
	// cluster.RunFixed — used by the Table II experiment sweep.
	FixedBlocks int
	// Fanout of the signature trees. Default sigtree.DefaultFanout.
	Fanout int
	// Owns gates which users this index materialises leaf entries for —
	// the sharding hook of internal/shard. nil owns everyone (the single-
	// engine case). A sharded index still tracks every user's block
	// assignment and keeps the tree/producer/entity universes and the hash
	// table identical to an unsharded index (they are cheap, and candidate
	// routing must agree across shards), but only owned users get the
	// expensive part: the signature leaves and their BiHMM-backed
	// refreshes. See DESIGN.md, "Sharding".
	Owns func(userID string) bool
}

func (c *Config) fill() {
	if c.LambdaS == 0 {
		c.LambdaS = 0.4
	}
	if c.Mu <= 0 {
		c.Mu = 10
	}
	if c.SimThreshold == 0 {
		c.SimThreshold = 0.6
	}
	if c.MaxBlocks <= 0 {
		c.MaxBlocks = 20
	}
}

// Probs supplies the cached BiHMM category probabilities stored in leaf
// signatures: Long is the long-term p(c|u), Short the short-term ps(c|u)
// over the user's recent window. The ssRec engine implements this with the
// trained BiHMM; MLEProbs is a model-free fallback.
//
// Build and BuildFromState call Long and Short from several goroutines at
// once, one per tree being filled, so during a build an implementation
// must only read: it may not write state those calls share. One that
// computes lazily implements Preparer as well and does its writing there.
// Index maintenance (UpdateUser, RefreshUser) calls them from one
// goroutine, under its caller's write lock.
type Probs interface {
	Long(userID, category string) float64
	Short(userID, category string) float64
}

// Preparer is implemented by a Probs that computes its probabilities
// lazily. A build calls Prepare once, from its own goroutine and before it
// reads any probability, with every user whose leaves it writes (each
// once); the Long and Short calls that follow ask only for those users, so
// they can read what Prepare stored.
type Preparer interface {
	Prepare(userIDs []string)
}

// MLEProbs implements Probs from profile statistics alone: the long-term
// category MLE and the add-one-smoothed window frequency.
type MLEProbs struct {
	Store *profile.Store
	NCats int
}

// Long implements Probs.
func (m MLEProbs) Long(userID, category string) float64 {
	p, ok := m.Store.Lookup(userID)
	if !ok {
		return 1 / float64(m.NCats)
	}
	return p.CategoryMLE(category, m.NCats)
}

// Short implements Probs.
func (m MLEProbs) Short(userID, category string) float64 {
	p, ok := m.Store.Lookup(userID)
	if !ok {
		return 1 / float64(m.NCats)
	}
	n := p.WindowCategoryCount(category)
	return float64(n+1) / float64(p.WindowLen()+m.NCats)
}

type treeKey struct {
	block    int
	category string
}

// Index is the assembled CPPse-index.
type Index struct {
	cfg   Config
	bg    *profile.Background
	probs Probs
	store *profile.Store

	blocks     *cluster.Result
	userBlock  map[string]int
	prodUni    []*sigtree.Universe // per block, shared across its trees
	trees      map[treeKey]*sigtree.Tree
	treesByCat map[string][]*sigtree.Tree
	hash       *shx.Table
}

// Build constructs the index over every profile in store.
//
// Steps: (1) one-pass clustering of users into blocks on their long-term
// category vectors; (2) per block, a shared producer universe; (3) per
// ⟨block, category⟩ with at least one interested member, an extended
// signature tree with one leaf entry per member; (4) a chained hash table
// from every ⟨category, entity⟩ pair in a tree's universe to that tree.
func Build(store *profile.Store, bg *profile.Background, probs Probs, cfg Config) (*Index, error) {
	cfg.fill()
	if len(cfg.Categories) == 0 {
		return nil, fmt.Errorf("cppse: no categories configured")
	}

	// (1) user blocks.
	var points []cluster.Point
	store.Each(func(p *profile.Profile) {
		points = append(points, cluster.Point{ID: p.UserID, Vec: p.CategoryVector(cfg.Categories)})
	})
	// Deterministic clustering input order.
	sortPointsByID(points)
	var (
		res *cluster.Result
		err error
	)
	if cfg.FixedBlocks > 0 {
		res, err = cluster.RunFixed(points, cfg.FixedBlocks)
	} else {
		res, err = cluster.Run(points, cluster.Options{SimThreshold: cfg.SimThreshold, MaxClusters: cfg.MaxBlocks})
	}
	if err != nil {
		return nil, fmt.Errorf("cppse: clustering: %w", err)
	}
	userBlock := make(map[string]int, len(res.Assignment))
	for id, b := range res.Assignment {
		userBlock[id] = b
	}
	return assemble(store, bg, probs, cfg, res, userBlock, nil), nil
}

// State is the path-dependent skeleton of a built index: the one-pass
// block clustering, every user's block assignment (including users
// assigned incrementally by Algorithm 2's nearest-centroid rule after the
// build), and the universes' insertion orders. Leaf signatures, tree
// membership and the hash table are pure functions of the engine's
// profile and model state and are reconstructed deterministically by
// BuildFromState; the clustering is NOT (re-running it over evolved
// profiles yields different blocks), and neither are the universe orders
// (names append in stream-arrival order, and the query encoder folds
// entity weights in universe-index order, so a differently-ordered
// universe shifts scores by an ulp). An engine snapshot must carry the
// State for a reload to be observably indistinguishable from the engine
// that never restarted — the exactness snapshot-seeded reseeds and
// online resharding stand on.
type State struct {
	Blocks    cluster.Snapshot
	UserBlock map[string]int
	// ProdUni is each block's producer-universe insertion order; EntUni
	// each block's per-category entity-universe insertion order. Nil on
	// snapshots from before they were recorded — BuildFromState then
	// falls back to sorted-member derivation.
	ProdUni [][]string
	EntUni  []map[string][]string
}

// State captures the index's path-dependent skeleton for serialisation.
func (ix *Index) State() State {
	st := State{Blocks: ix.blocks.Snapshot(), UserBlock: make(map[string]int, len(ix.userBlock))}
	for id, b := range ix.userBlock {
		st.UserBlock[id] = b
	}
	st.ProdUni = make([][]string, len(ix.prodUni))
	for b, u := range ix.prodUni {
		st.ProdUni[b] = append([]string(nil), u.Names()...)
	}
	st.EntUni = make([]map[string][]string, len(ix.prodUni))
	for key, tr := range ix.trees {
		m := st.EntUni[key.block]
		if m == nil {
			m = make(map[string][]string)
			st.EntUni[key.block] = m
		}
		m[key.category] = append([]string(nil), tr.Ent.Names()...)
	}
	return st
}

// BuildFromState reconstructs an index over store pinned to a previously
// captured State: no re-clustering — blocks, centroids, assignments and
// universe insertion orders are restored verbatim, then trees, leaves
// (for owned users) and the hash table are derived from the current
// profiles exactly as an evolved index maintains them.
func BuildFromState(store *profile.Store, bg *profile.Background, probs Probs, cfg Config, st State) (*Index, error) {
	cfg.fill()
	if len(cfg.Categories) == 0 {
		return nil, fmt.Errorf("cppse: no categories configured")
	}
	res := cluster.FromSnapshot(st.Blocks)
	userBlock := make(map[string]int, len(st.UserBlock))
	for id, b := range st.UserBlock {
		if b < 0 || b >= len(res.Clusters) {
			return nil, fmt.Errorf("cppse: user %q assigned to block %d of %d", id, b, len(res.Clusters))
		}
		userBlock[id] = b
	}
	if st.ProdUni != nil && len(st.ProdUni) != len(res.Clusters) {
		return nil, fmt.Errorf("cppse: %d producer universes for %d blocks", len(st.ProdUni), len(res.Clusters))
	}
	if st.EntUni != nil && len(st.EntUni) != len(res.Clusters) {
		return nil, fmt.Errorf("cppse: %d entity-universe sets for %d blocks", len(st.EntUni), len(res.Clusters))
	}
	return assemble(store, bg, probs, cfg, res, userBlock, &st), nil
}

// assemble derives the full index from a block structure and a user →
// block assignment: per-block producer universes, per-⟨block, category⟩
// signature trees with leaves for owned members, and the chained hash
// table. Membership per block is taken from the assignment (so users
// assigned after the original build are included) in sorted-ID order —
// for a fresh Build this matches the clustering's insertion order, since
// the points are pre-sorted. A non-nil seed replays the captured universe
// insertion orders before member-derived names: index positions — and
// with them the encoder's summation order — survive the rebuild bit-for-
// bit. A tree whose seeded category has live members is built either way;
// seeded orders for categories that lost every member are dropped with
// the tree, exactly as a live index leaves such trees empty.
func assemble(store *profile.Store, bg *profile.Background, probs Probs, cfg Config, res *cluster.Result, userBlock map[string]int, seed *State) *Index {
	ix := &Index{
		cfg:        cfg,
		bg:         bg,
		probs:      probs,
		store:      store,
		blocks:     res,
		userBlock:  userBlock,
		trees:      make(map[treeKey]*sigtree.Tree),
		treesByCat: make(map[string][]*sigtree.Tree),
		hash:       shx.NewTable(hashBuckets),
	}
	memberIDs := make([][]string, len(res.Clusters))
	for id, b := range userBlock {
		memberIDs[b] = append(memberIDs[b], id)
	}
	for _, ids := range memberIDs {
		sort.Strings(ids)
	}

	// (2) block producer universes.
	ix.prodUni = make([]*sigtree.Universe, len(res.Clusters))
	for _, c := range res.Clusters {
		var u *sigtree.Universe
		if seed != nil && seed.ProdUni != nil {
			u = sigtree.NewUniverse(seed.ProdUni[c.ID])
		} else {
			u = sigtree.NewUniverse(nil)
		}
		for _, uid := range memberIDs[c.ID] {
			p, _ := store.Lookup(uid)
			if p == nil {
				continue
			}
			for _, up := range sortedStrings(p.Producers()) {
				u.Add(up)
			}
		}
		ix.prodUni[c.ID] = u
	}

	// (3)+(4), serial phase: every tree's entity universe, its registration
	// and its hash entries, in block and category order, and the owned
	// members each tree will hold a leaf for.
	var jobs []fillJob
	var leafUsers []string
	for _, c := range res.Clusters {
		ids := memberIDs[c.ID]
		profiles := make([]*profile.Profile, len(ids))
		owned := make([]bool, len(ids))
		writes := make([]bool, len(ids))
		for i, uid := range ids {
			profiles[i], _ = store.Lookup(uid)
			owned[i] = ix.owns(uid)
		}
		for _, cat := range cfg.Categories {
			var ents *sigtree.Universe
			if seed != nil && seed.EntUni != nil && seed.EntUni[c.ID] != nil {
				ents = sigtree.NewUniverse(seed.EntUni[c.ID][cat])
			} else {
				ents = sigtree.NewUniverse(nil)
			}
			interested := false
			var leaves []*profile.Profile
			for i, p := range profiles {
				if p == nil || !ix.userInterested(p, cat) {
					continue
				}
				interested = true
				if owned[i] {
					leaves = append(leaves, p)
					writes[i] = true
				}
				for _, e := range sortedStrings(p.EntitiesIn(cat)) {
					ents.Add(e)
				}
			}
			if !interested {
				continue
			}
			tr := sigtree.New(c.ID, cat, ix.prodUni[c.ID], ents, cfg.Fanout)
			ix.trees[treeKey{c.ID, cat}] = tr // register before leafSignatureInto reads tr.Ent
			ix.treesByCat[cat] = append(ix.treesByCat[cat], tr)
			for _, e := range ents.Names() {
				ix.hash.Insert(shx.PairKey(cat, e), tr)
			}
			if len(leaves) > 0 {
				jobs = append(jobs, fillJob{tr: tr, members: leaves})
			}
		}
		for i, w := range writes {
			if w {
				leafUsers = append(leafUsers, ids[i])
			}
		}
	}
	if pr, ok := probs.(Preparer); ok {
		pr.Prepare(leafUsers)
	}
	ix.fill(jobs)
	return ix
}

// fillJob is one tree of a build's parallel phase and the owned members it
// gets leaves for, in insertion order.
type fillJob struct {
	tr      *sigtree.Tree
	members []*profile.Profile
}

// fill inserts every job's members into its tree on runtime.GOMAXPROCS(0)
// workers, each taking whole trees from a shared counter with its own
// refresh scratch. A tree is filled by one goroutine with the inserts, in
// the order, of a serial build, so it comes out bit-identical whatever the
// schedule. The phase reads only state no worker writes: profiles,
// universes, the tree registry and probs (see Probs).
func (ix *Index) fill(jobs []fillJob) {
	// Largest first, so the trees taken last are small and no worker is
	// left finishing a big one alone.
	slices.SortStableFunc(jobs, func(a, b fillJob) int { return cmp.Compare(len(b.members), len(a.members)) })
	var next atomic.Int64
	work := func() {
		sc := getRefreshScratch()
		defer putRefreshScratch(sc)
		for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
			j := &jobs[i]
			for _, p := range j.members {
				j.tr.Insert(p.UserID, *ix.leafSignatureInto(sc, p, j.tr.BlockID, j.tr.Category))
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// owns reports whether this index materialises leaves for a user
// (Config.Owns; nil owns everyone).
func (ix *Index) owns(userID string) bool {
	return ix.cfg.Owns == nil || ix.cfg.Owns(userID)
}

// userInterested reports whether a user belongs in the tree of cat: any
// long-term or windowed activity there.
func (ix *Index) userInterested(p *profile.Profile, cat string) bool {
	if p.CategoryCount(cat) > 0 {
		return true
	}
	for _, wc := range p.WindowCategories() {
		if wc == cat {
			return true
		}
	}
	return false
}

// Recommend returns the top-k users for the prepared item query, plus the
// pruning statistics of the search. The query should be built with
// ranking.BuildQuery (expansion included when desired).
func (ix *Index) Recommend(q ranking.ItemQuery, k int) ([]model.Recommendation, sigtree.SearchStats) {
	recs, stats, _ := ix.RecommendBound(nil, q, k, nil)
	return recs, stats
}

// RecommendCtx is Recommend with cooperative cancellation: the search
// loop polls ctx (sigtree.RunCtx) and returns ctx.Err() when it fires.
// Results are bit-identical to Recommend when the context never fires.
//
// Deprecated: parallelism is ignored; every query is searched serially
// (DESIGN.md, "Why search is serial"). Use RecommendBound.
func (ix *Index) RecommendCtx(ctx context.Context, q ranking.ItemQuery, k, parallelism int) ([]model.Recommendation, sigtree.SearchStats, error) {
	return ix.RecommendBound(ctx, q, k, nil)
}

// RecommendBound is the cancellable search pruning against (and raising) a
// caller-supplied cross-shard bound: the shard-local leg of the router's
// scatter-gather query. The returned list covers only the users this index
// owns; the router merges the per-shard lists with sigtree.MergeTopK. A
// nil bound is the single-process case.
func (ix *Index) RecommendBound(ctx context.Context, q ranking.ItemQuery, k int, b *sigtree.Bound) ([]model.Recommendation, sigtree.SearchStats, error) {
	sc := getScratch()
	defer putScratch(sc)
	tqs := ix.encodeAll(sc, q)
	return sigtree.SearchCtx(ctx, tqs, k, b)
}

// CandidateUsers returns the users reachable for a query — the candidate
// set a sequential scan over the same trees would consider. Used by
// equivalence tests and the ablation benchmarks.
func (ix *Index) CandidateUsers(q ranking.ItemQuery) []string {
	var out []string
	for _, tr := range ix.lookupTrees(q) {
		out = append(out, tr.Users()...)
	}
	return out
}

// RecommendScan is the no-pruning arm: identical candidate trees and
// scoring, but every leaf entry is scored (AblationPruning).
func (ix *Index) RecommendScan(q ranking.ItemQuery, k int) []model.Recommendation {
	sc := getScratch()
	defer putScratch(sc)
	tqs := ix.encodeAll(sc, q)
	return sigtree.SequentialScan(tqs, k)
}

// lookupTrees returns the candidate trees of a query as a fresh slice —
// the cold-path wrapper around lookupTreesInto for tests and ablations.
func (ix *Index) lookupTrees(q ranking.ItemQuery) []*sigtree.Tree {
	sc := getScratch()
	defer putScratch(sc)
	sc.reset()
	ix.lookupTreesInto(sc, q)
	return append([]*sigtree.Tree(nil), sc.trees...)
}

// UpdateUser refreshes (or creates) the index entries of one user from the
// current state of its profile — the per-user body of Algorithm 2. New
// users are assigned to the nearest block centroid; unseen entities extend
// the tree universe and the hash table.
//
// Sharding split (Config.Owns): block assignment, universe growth and hash
// insertion always run — every shard must route candidates identically —
// but the signature recomputation (the BiHMM forward passes behind
// leafSignatureInto) and the tree write happen only for owned users. That is
// the maintenance cost a sharded deployment divides N ways.
func (ix *Index) UpdateUser(userID string) error {
	return ix.RefreshUser(userID, true)
}

// RemoveUser deletes a user's entries from every tree of its block (a user
// leaving the platform). The profile itself is owned by the caller's
// store. Returns false if the user was never indexed.
//
// The block's trees are walked directly rather than Config.Categories:
// UpdateUser creates trees from the PROFILE's categories, so a user
// observed under an unconfigured category (v1 Observe admits them) has a
// leaf the configured set would never find — iterating the configured
// categories leaked that leaf forever. Per-tree deletes are independent,
// so map iteration order does not affect the final state.
func (ix *Index) RemoveUser(userID string) bool {
	block, ok := ix.userBlock[userID]
	if !ok {
		return false
	}
	removed := false
	for key, tr := range ix.trees {
		if key.block == block && tr.Delete(userID) {
			removed = true
		}
	}
	delete(ix.userBlock, userID)
	return removed
}

// nearestBlock assigns a (new) user to the closest block centroid, or
// block 0 when no blocks exist.
func (ix *Index) nearestBlock(p *profile.Profile) int {
	if len(ix.blocks.Clusters) == 0 {
		return 0
	}
	vec := p.CategoryVector(ix.cfg.Categories)
	best, bestSim := 0, -1.0
	for _, c := range ix.blocks.Clusters {
		if sim := cluster.Cosine(vec, c.Centroid); sim > bestSim {
			best, bestSim = c.ID, sim
		}
	}
	return best
}

// IndexStats summarises the built index (Table II inputs and general
// shape).
type IndexStats struct {
	Blocks          int
	Trees           int
	Users           int // users with a block assignment (all users, even sharded)
	OwnedUsers      int // users whose leaves this index materialises (= Users unsharded)
	MaxEntityUni    int // largest per-tree entity universe
	MaxProducerUni  int // largest per-block producer universe
	HashKeys        int
	HashMaxChain    int
	TotalLeafCount  int
	MaxTreeEntries  int
	DeepestTreeSize int
}

// Stats computes the index summary.
func (ix *Index) Stats() IndexStats {
	s := IndexStats{Blocks: len(ix.blocks.Clusters), Trees: len(ix.trees), Users: len(ix.userBlock)}
	if ix.cfg.Owns == nil {
		s.OwnedUsers = s.Users
	} else {
		for id := range ix.userBlock {
			if ix.cfg.Owns(id) {
				s.OwnedUsers++
			}
		}
	}
	for _, u := range ix.prodUni {
		if u.Len() > s.MaxProducerUni {
			s.MaxProducerUni = u.Len()
		}
	}
	for _, tr := range ix.trees {
		if tr.Ent.Len() > s.MaxEntityUni {
			s.MaxEntityUni = tr.Ent.Len()
		}
		s.TotalLeafCount += tr.Len()
		if tr.Len() > s.MaxTreeEntries {
			s.MaxTreeEntries = tr.Len()
		}
		if d := tr.Depth(); d > s.DeepestTreeSize {
			s.DeepestTreeSize = d
		}
	}
	hs := ix.hash.Stats()
	s.HashKeys = hs.Keys
	s.HashMaxChain = hs.MaxChain
	return s
}

// Tree exposes one tree for tests.
func (ix *Index) Tree(block int, category string) *sigtree.Tree {
	return ix.trees[treeKey{block, category}]
}

// BlockOf returns the block a user is assigned to.
func (ix *Index) BlockOf(userID string) (int, bool) {
	b, ok := ix.userBlock[userID]
	return b, ok
}

// ---- helpers ----

func sortPointsByID(points []cluster.Point) {
	sort.Slice(points, func(i, j int) bool { return points[i].ID < points[j].ID })
}

func sortedStrings(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}
