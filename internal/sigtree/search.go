// search.go implements Algorithm 1 — branch-and-bound top-k over the
// extended signature trees — as a reusable, allocation-free Searcher. A
// query is searched serially; the only concurrency is across shards,
// which share a Bound. See DESIGN.md, "Why search is serial".
//
// The query core is deliberately zero-allocation in steady state: the
// priority queue stores pqItem values in a reusable slab (no per-node
// heap boxing), the top-k accumulator recycles its backing array, and
// whole Searchers are pooled via sync.Pool. The only allocation a search
// performs is the result slice handed to the caller.
package sigtree

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"ssrec/internal/model"
)

// TreeQuery pairs a tree with the pseudo-query encoded for it.
type TreeQuery struct {
	Tree  *Tree
	Query *Query
}

// SearchStats reports pruning effectiveness for one search.
type SearchStats struct {
	NodesVisited   int // internal/leaf nodes expanded
	EntriesScored  int // leaf entries whose exact score was computed
	EntriesSkipped int // pruned by the upper bound (never scored)
}

// Add accumulates another search's pruning counters.
func (s *SearchStats) Add(o SearchStats) {
	s.NodesVisited += o.NodesVisited
	s.EntriesScored += o.EntriesScored
	s.EntriesSkipped += o.EntriesSkipped
}

// pqItem is one priority-queue element: an internal or leaf node of a
// tree, with the query it was scored against. Leaf entries are offered to
// the top-k accumulator directly and never enter the queue, so items are
// plain values and the queue is a flat slab.
type pqItem struct {
	score float64
	seq   int // FIFO tie-break for deterministic traversal
	node  *node
	q     *Query
}

// pqLess orders the max-heap: higher score first, earlier push on ties.
func pqLess(a, b *pqItem) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.seq < b.seq
}

// Searcher owns the scratch state of one branch-and-bound run: the value
// slab of the priority queue and the top-k accumulator. A zero Searcher
// is ready to use; Search and SearchCtx draw them from an internal pool
// so steady-state queries do not allocate.
type Searcher struct {
	pq    []pqItem
	seq   int
	topk  topK
	stats SearchStats
}

var searcherPool = sync.Pool{New: func() any { return new(Searcher) }}

// NewSearcher returns a fresh standalone Searcher (callers that want to
// manage reuse themselves; Search/SearchCtx pool internally).
func NewSearcher() *Searcher { return new(Searcher) }

func (s *Searcher) reset(k int) {
	s.pq = s.pq[:0]
	s.seq = 0
	s.stats = SearchStats{}
	s.topk.reset(k)
}

// push inserts a value item into the max-heap slab.
func (s *Searcher) push(it pqItem) {
	it.seq = s.seq
	s.seq++
	s.pq = append(s.pq, it)
	i := len(s.pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pqLess(&s.pq[i], &s.pq[parent]) {
			break
		}
		s.pq[i], s.pq[parent] = s.pq[parent], s.pq[i]
		i = parent
	}
}

// pop removes the best item.
func (s *Searcher) pop() pqItem {
	top := s.pq[0]
	n := len(s.pq) - 1
	s.pq[0] = s.pq[n]
	s.pq[n] = pqItem{} // release node pointer
	s.pq = s.pq[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && pqLess(&s.pq[l], &s.pq[best]) {
			best = l
		}
		if r < n && pqLess(&s.pq[r], &s.pq[best]) {
			best = r
		}
		if best == i {
			break
		}
		s.pq[i], s.pq[best] = s.pq[best], s.pq[i]
		i = best
	}
	return top
}

// lowerBound is the effective pruning bound: the worst score of the local
// top-k once full, raised further by the shared cross-shard bound when
// one is attached.
func (s *Searcher) lowerBound(shared *Bound) float64 {
	lb := s.topk.WorstScore()
	if shared != nil {
		if g := shared.Load(); g > lb {
			lb = g
		}
	}
	return lb
}

// Run executes Algorithm 1 over the given trees, pruning against the
// optional shared lower bound, and returns the local top-k best-first.
//
// Correctness under a shared bound: every value raised into it is some
// participant's current k-th best exact score, a monotone lower bound on
// the global k-th best exact score (the global candidate pool is a
// superset of every participant's). Pruning is strict (<), so an entry
// at exactly the final k-th score is always expanded and user-ID
// tie-breaking stays identical to SequentialScan.
func (s *Searcher) Run(tqs []TreeQuery, k int, shared *Bound) ([]model.Recommendation, SearchStats) {
	recs, stats, _ := s.RunCtx(nil, tqs, k, shared)
	return recs, stats
}

// ctxCheckEvery is how many priority-queue pops pass between context
// checks: frequent enough that cancellation lands within microseconds,
// rare enough that ctx.Err's mutex never shows up in profiles.
const ctxCheckEvery = 64

// RunCtx is Run with cooperative cancellation: the search loop polls
// ctx every ctxCheckEvery node expansions and, when the context is
// done, abandons the traversal and returns ctx.Err() with whatever the
// accumulator held (partial, best-effort results). A nil ctx disables
// the checks and is exactly Run.
func (s *Searcher) RunCtx(ctx context.Context, tqs []TreeQuery, k int, shared *Bound) ([]model.Recommendation, SearchStats, error) {
	s.reset(k)
	for _, tq := range tqs {
		if tq.Tree.Len() == 0 {
			continue
		}
		s.push(pqItem{score: tq.Tree.root.score(tq.Query), node: tq.Tree.root, q: tq.Query})
	}
	var err error
	pops := 0
	for len(s.pq) > 0 {
		if ctx != nil {
			if pops%ctxCheckEvery == 0 {
				if err = ctx.Err(); err != nil {
					break
				}
			}
			pops++
		}
		it := s.pop()
		lb := s.lowerBound(shared)
		if it.score < lb {
			// Max-ordered queue: nothing left can beat the bound.
			s.stats.EntriesSkipped += it.node.size + s.remainingEntries()
			break
		}
		n := it.node
		s.stats.NodesVisited++
		if n.leaf {
			for i := range n.entries {
				e := &n.entries[i]
				s.topk.Offer(e.UserID, score(&e.Sig, nil, nil, it.q))
				s.stats.EntriesScored++
			}
			if shared != nil && s.topk.Full() {
				shared.Raise(s.topk.WorstScore())
			}
			continue
		}
		for _, c := range n.children {
			cs := c.score(it.q)
			// Score ties with the bound are still expanded so user-ID
			// tie-breaking matches a sequential scan exactly.
			if cs >= lb {
				s.push(pqItem{score: cs, node: c, q: it.q})
			} else {
				s.stats.EntriesSkipped += c.size
			}
		}
	}
	// Drop node references left by an early break so pooled Searchers
	// don't pin replaced index structures.
	s.pq = s.pq[:cap(s.pq)]
	clear(s.pq)
	s.pq = s.pq[:0]
	return s.topk.Sorted(), s.stats, err
}

func (s *Searcher) remainingEntries() int {
	n := 0
	for i := range s.pq {
		n += s.pq[i].node.size
	}
	return n
}

// Search runs the KNN of Algorithm 1 across the matched trees and returns
// the top-k users by R(v, u), best first. It never returns a user whose
// exact score is below a pruned candidate's true score (no false pruning:
// Lemmas 1–2).
func Search(tqs []TreeQuery, k int) ([]model.Recommendation, SearchStats) {
	recs, stats, _ := SearchCtx(nil, tqs, k, nil)
	return recs, stats
}

// SearchCtx is Search on a pooled Searcher with cooperative cancellation
// (see Searcher.RunCtx; on cancellation it returns ctx.Err() along with
// partial results), pruning against and raising the optional shared
// bound. The bound is the cross-shard protocol: every shard of a
// scatter-gather query searches its own users with the SAME Bound, so one
// shard's k-th best exact score prunes every other shard's traversal, and
// the router folds the per-shard lists with MergeTopK. A nil bound is the
// single-process case.
func SearchCtx(ctx context.Context, tqs []TreeQuery, k int, shared *Bound) ([]model.Recommendation, SearchStats, error) {
	s := searcherPool.Get().(*Searcher)
	recs, stats, err := s.RunCtx(ctx, tqs, k, shared)
	searcherPool.Put(s)
	return recs, stats, err
}

// Bound is a monotonically increasing float64 shared by the shards of one
// scatter-gather query: the best global lower bound on the final k-th
// exact score published so far. Create with NewBound; the zero
// value is NOT ready (the bound must start at -Inf).
//
// Bound carries cross-shard pruning between in-process shards (a remote
// shard searches against its own). Because Raise is a lock-free monotone
// max, updates may be applied in any order, duplicated or delayed without
// affecting correctness — a late bound only costs pruning opportunity,
// never results.
type Bound struct{ bits atomic.Uint64 }

// NewBound returns a shared bound initialised to -Inf (nothing pruned yet).
func NewBound() *Bound {
	lb := &Bound{}
	lb.bits.Store(math.Float64bits(math.Inf(-1)))
	return lb
}

// Load returns the current bound.
func (l *Bound) Load() float64 { return math.Float64frombits(l.bits.Load()) }

// Raise lifts the bound to v if v is higher (lock-free monotone max).
func (l *Bound) Raise(v float64) {
	for {
		old := l.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if l.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// MergeTopK folds several per-shard top-k lists into the global top-k
// using the search comparator (score descending, user-ID ascending tie
// break). Because the Offer comparator is order-independent and every
// input list is exact for its own candidate subset, folding lists in any
// order yields the global top-k with sequential tie-breaking — this is the
// gather step of the sharded scatter-gather router.
func MergeTopK(k int, lists ...[]model.Recommendation) []model.Recommendation {
	merged := newTopK(k)
	for _, l := range lists {
		for _, r := range l {
			merged.Offer(r.UserID, r.Score)
		}
	}
	return merged.Sorted()
}

// SequentialScan scores every leaf entry of every tree directly — the
// reference implementation used to verify the index returns identical
// results, and the no-pruning arm of the AblationPruning benchmark.
func SequentialScan(tqs []TreeQuery, k int) []model.Recommendation {
	topk := newTopK(k)
	var scan func(n *node, q *Query)
	scan = func(n *node, q *Query) {
		for i := range n.entries {
			topk.Offer(n.entries[i].UserID, score(&n.entries[i].Sig, nil, nil, q))
		}
		for _, c := range n.children {
			scan(c, q)
		}
	}
	for _, tq := range tqs {
		scan(tq.Tree.root, tq.Query)
	}
	return topk.Sorted()
}

// ---- top-k accumulator (worst-first min-heap) ----

type topK struct {
	k     int
	items []model.Recommendation
}

func newTopK(k int) *topK {
	t := &topK{}
	t.reset(k)
	return t
}

func (t *topK) reset(k int) {
	if k < 1 {
		k = 1
	}
	t.k = k
	t.items = t.items[:0]
}

func (t *topK) Full() bool { return len(t.items) >= t.k }

func (t *topK) WorstScore() float64 {
	if !t.Full() {
		return math.Inf(-1)
	}
	return t.items[0].Score
}

func (t *topK) Offer(userID string, score float64) {
	r := model.Recommendation{UserID: userID, Score: score}
	if len(t.items) < t.k {
		t.items = append(t.items, r)
		i := len(t.items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !worse(t.items[i], t.items[parent]) {
				break
			}
			t.items[i], t.items[parent] = t.items[parent], t.items[i]
			i = parent
		}
		return
	}
	if !model.ByScoreDesc(r, t.items[0]) {
		return
	}
	t.items[0] = r
	i, n := 0, len(t.items)
	for {
		l, r2 := 2*i+1, 2*i+2
		m := i
		if l < n && worse(t.items[l], t.items[m]) {
			m = l
		}
		if r2 < n && worse(t.items[r2], t.items[m]) {
			m = r2
		}
		if m == i {
			return
		}
		t.items[i], t.items[m] = t.items[m], t.items[i]
		i = m
	}
}

func worse(a, b model.Recommendation) bool { return model.ByScoreDesc(b, a) }

func (t *topK) Sorted() []model.Recommendation {
	out := append([]model.Recommendation(nil), t.items...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && model.ByScoreDesc(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
