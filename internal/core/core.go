// Package core implements the ssRec engine of Zhou et al. (ICDE 2019): the
// full pipeline wiring the BiHMM interest model (§IV-A), the CPPse user
// profiles and entity-based matching (§IV-B/C) and the CPPse-index (§V)
// behind one Engine type that satisfies the shared Recommender interface.
//
// Lifecycle:
//
//	eng := core.New(cfg)
//	eng.Train(items, interactions)        // batch bootstrap
//	recs := eng.Recommend(item, k)        // per incoming stream item
//	eng.Observe(interaction, item)        // per user-item interaction
//
// Observe maintains the short-term windows, the producer layer and the
// index entries (Algorithm 2) unless updates are disabled
// (Config.DisableUpdates — the ssRec-nu arm of Fig. 9).
package core

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ssrec/internal/bihmm"
	"ssrec/internal/cppse"
	"ssrec/internal/entity"
	"ssrec/internal/hmm"
	"ssrec/internal/model"
	"ssrec/internal/profile"
	"ssrec/internal/ranking"
	"ssrec/internal/sigtree"
)

// Config parameterises the engine. Zero values take the paper's defaults.
type Config struct {
	Categories []string

	// WindowSize is |W|, the short-term interest window (paper optimum 5).
	WindowSize int
	// LambdaS balances short/long-term relevance (paper optima 0.4/0.3).
	LambdaS float64
	// Mu is the Dirichlet smoothing pseudo-count. Default 10.
	Mu float64

	// ConsumerStates / ProducerStates are the BiHMM hidden-state counts.
	ConsumerStates int
	ProducerStates int
	// AutoSelectStates tunes the consumer hidden-state count per user by
	// held-out next-category accuracy (the paper's §VI-C1 protocol),
	// trying 1..ConsumerStates. Costs ~ConsumerStates× the training time;
	// off by default.
	AutoSelectStates bool
	// MinProducerHistory gates per-producer a-HMM training.
	MinProducerHistory int
	// MinConsumerHistory gates per-consumer b-HMM training; smaller users
	// share the population model.
	MinConsumerHistory int
	// MaxPopulationSeqs caps the corpus of the shared population model.
	MaxPopulationSeqs int
	// TrainMaxIter / Restarts forward to Baum-Welch.
	TrainMaxIter int
	Restarts     int

	// DisableExpansion turns entity expansion off (ssRec-ne, Fig. 8).
	DisableExpansion bool
	// ExpansionWindow / ExpansionTopK tune the proximity expander.
	ExpansionWindow int
	ExpansionTopK   int

	// DisableUpdates freezes profiles and index after Train (ssRec-nu,
	// Fig. 9).
	DisableUpdates bool
	// UpdateBatch batches index maintenance: profile changes are applied
	// immediately, but the per-user index entries (Algorithm 2) refresh
	// only every UpdateBatch observations — the paper's "periodic"
	// maintenance mode. Pending users are always flushed before a query
	// so results never serve stale entries. 0 or 1 = immediate.
	UpdateBatch int

	// Index knobs (see cppse.Config).
	SimThreshold float64
	MaxBlocks    int
	FixedBlocks  int
	Fanout       int

	// Parallelism is ignored: every query is searched serially (see
	// DESIGN.md, "Why search is serial"). The field stays so snapshots
	// written with or without it load in either direction.
	//
	// Deprecated: it has no effect.
	Parallelism int

	// ShardIndex / ShardCount make this engine one shard of an N-way
	// deployment (internal/shard): the engine materialises index leaves —
	// and pays the BiHMM signature-refresh cost — only for users that
	// model.ShardOf assigns to ShardIndex, while every dictionary the
	// shards must agree on (profiles, block assignment, universes, the
	// hash table, the trained models) is maintained identically everywhere.
	// ShardCount <= 1 is the ordinary unsharded engine. Plain ints rather
	// than a predicate so the setting survives SaveTo/LoadFrom snapshots.
	ShardIndex int
	ShardCount int

	Seed int64
}

// ownsUser is the deployment-wide ownership rule: which shard materialises
// a user's index leaves. Unsharded engines own everyone.
func (c *Config) ownsUser(userID string) bool {
	return c.ShardCount <= 1 || model.ShardOf(userID, c.ShardCount) == c.ShardIndex
}

// sharded reports whether ownership is actually partitioned — i.e. the
// index must carry an owns predicate instead of materialising every leaf.
func (c *Config) sharded() bool {
	return c.ShardCount > 1
}

func (c *Config) fill() {
	if c.WindowSize <= 0 {
		c.WindowSize = 5
	}
	if c.LambdaS == 0 {
		c.LambdaS = 0.4
	}
	if c.Mu <= 0 {
		c.Mu = 10
	}
	if c.ConsumerStates <= 0 {
		c.ConsumerStates = 3
	}
	if c.ProducerStates <= 0 {
		c.ProducerStates = 3
	}
	if c.MinProducerHistory <= 0 {
		c.MinProducerHistory = 5
	}
	if c.MinConsumerHistory <= 0 {
		c.MinConsumerHistory = 12
	}
	if c.MaxPopulationSeqs <= 0 {
		c.MaxPopulationSeqs = 150
	}
	if c.TrainMaxIter <= 0 {
		c.TrainMaxIter = 15
	}
	if c.Restarts <= 0 {
		c.Restarts = 2
	}
	if c.ExpansionWindow <= 0 {
		c.ExpansionWindow = 5
	}
	if c.ExpansionTopK <= 0 {
		c.ExpansionTopK = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Engine is the assembled ssRec recommender.
//
// # Locking contract
//
// Engine is safe for concurrent use across its streaming surface: the
// recommend path (Recommend, RecommendStats, RecommendScan, BuildQuery)
// runs under a read lock so overlapping queries execute in parallel,
// while the mutating path (Train, Observe, RegisterItem, FlushUpdates,
// RebuildIndex, SaveTo) takes the write lock. A query that must first
// register an unseen item or flush batched maintenance briefly upgrades
// to the write lock before re-acquiring the read side. The direct
// component accessors (Store, Index, Expander, ProducerLayer) return
// interior state and are for single-threaded callers (experiments,
// tests) only. See DESIGN.md, "Concurrency".
type Engine struct {
	mu     sync.RWMutex
	cfg    Config
	catIdx map[string]int

	store    *profile.Store
	bg       *profile.Background
	expander *entity.Expander

	producers *bihmm.ProducerLayer
	// consumer observation sequences: category index + producer state of
	// every browsed item, in temporal order. The last WindowLen entries
	// correspond to the profile's short-term window.
	consumerObs map[string][]bihmm.Obs
	consumers   map[string]*bihmm.BHMM // per-consumer models
	population  *bihmm.BHMM            // fallback for thin consumers

	// itemZ caches the decoded producer state of every known item.
	itemZ     map[string]int
	prodPos   map[string]int // items created per producer so far
	index     *cppse.Index
	predCache map[string]*predEntry
	// predScratch is the prediction's per-slot scratch (grown to the
	// widest model's PredictScratchLen); the write lock guards it.
	predScratch []float64

	// dirty users await batched index maintenance (Config.UpdateBatch);
	// the value records whether the user's window rolled since the last
	// flush (sticky until that user is flushed).
	dirty      map[string]bool
	flushIDs   []string // reusable scratch for flushUpdatesLocked
	sinceFlush int
	trained    bool
	// fullRefresh forces the rebuild-everything reference path
	// (SetFullRefresh).
	fullRefresh bool

	// refreshErrs counts index-refresh failures during flushes (surfaced
	// as the refresh_errors stat; first occurrence is logged).
	refreshErrs int64
}

// predEntry caches one consumer's long/short category predictions, keyed
// by the observation length they were computed at (-1 = stale), together
// with the forward states they were folded from: the long side tracks the
// prefix obs[:len-winLen], the short side the window suffix starting at
// shortStart. longLen is the prefix length the long row was predicted at
// (-1 = none since the long state was last reset). A refresh writes into
// the entry's own rows.
type predEntry struct {
	obsLen      int
	long, short []float64
	longSt      bihmm.ForwardState
	longLen     int
	shortSt     bihmm.ForwardState
	shortStart  int
}

// New creates an engine; Train must run before Recommend.
func New(cfg Config) *Engine {
	cfg.fill()
	e := &Engine{
		cfg:         cfg,
		catIdx:      make(map[string]int, len(cfg.Categories)),
		store:       profile.NewStore(cfg.WindowSize),
		consumerObs: make(map[string][]bihmm.Obs),
		consumers:   make(map[string]*bihmm.BHMM),
		itemZ:       make(map[string]int),
		prodPos:     make(map[string]int),
		predCache:   make(map[string]*predEntry),
		dirty:       make(map[string]bool),
	}
	for i, c := range cfg.Categories {
		e.catIdx[c] = i
	}
	e.expander = entity.NewExpander(cfg.ExpansionWindow, cfg.ExpansionTopK)
	return e
}

// Name implements the Recommender interface.
func (e *Engine) Name() string {
	switch {
	case e.cfg.DisableExpansion:
		return "ssRec-ne"
	case e.cfg.DisableUpdates:
		return "ssRec-nu"
	}
	return "ssRec"
}

// Train bootstraps the engine: background distributions and the expander
// from the training items, the producer layer from per-producer item
// streams, per-consumer BiHMMs from the training interactions, and finally
// the CPPse-index.
//
// items must contain every item referenced by interactions (and may
// contain more — only items up to the last training timestamp contribute
// to the background).
func (e *Engine) Train(items []model.Item, interactions []model.Interaction, resolve func(string) (model.Item, bool)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.cfg.Categories) == 0 {
		return fmt.Errorf("core: no categories configured")
	}
	var lastTS int64
	for _, ir := range interactions {
		if ir.Timestamp > lastTS {
			lastTS = ir.Timestamp
		}
	}
	// Background + expander + producer histories from training-era items.
	var bgItems []model.Item
	prodHist := map[string][]int{}
	prodItems := map[string][]string{}
	for _, v := range items {
		if lastTS > 0 && v.Timestamp > lastTS {
			continue
		}
		bgItems = append(bgItems, v)
		e.expander.Observe(v.Category, v.Entities)
		ci, ok := e.catIdx[v.Category]
		if !ok {
			continue
		}
		prodHist[v.Producer] = append(prodHist[v.Producer], ci)
		prodItems[v.Producer] = append(prodItems[v.Producer], v.ID)
	}
	e.bg = profile.NewBackground(bgItems, e.cfg.Mu)

	e.producers = bihmm.FitProducerLayer(prodHist, len(e.cfg.Categories), bihmm.ProducerLayerOptions{
		NZ:         e.cfg.ProducerStates,
		MinHistory: e.cfg.MinProducerHistory,
		Seed:       e.cfg.Seed,
		Train:      hmm.TrainOptions{MaxIter: e.cfg.TrainMaxIter, Restarts: e.cfg.Restarts},
	})
	for up, ids := range prodItems {
		for pos, id := range ids {
			e.itemZ[id] = e.producers.AlignedStateAt(up, pos)
		}
		e.prodPos[up] = len(ids)
	}

	// Replay training interactions into profiles and observation streams.
	for _, ir := range interactions {
		v, ok := resolve(ir.ItemID)
		if !ok {
			continue
		}
		p := e.store.Get(ir.UserID)
		p.ObserveLongTerm(profile.EventFromItem(v, ir.Timestamp))
		e.consumerObs[ir.UserID] = append(e.consumerObs[ir.UserID], e.obsFor(v))
	}

	// Per-consumer BiHMMs plus the shared population fallback.
	ids := make([]string, 0, len(e.consumerObs))
	for id := range e.consumerObs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	opts := bihmm.TrainOptions{MaxIter: e.cfg.TrainMaxIter, Restarts: e.cfg.Restarts}
	// The conditioning alphabet is the aligned producer state: one symbol
	// per category (see bihmm.ProducerLayer.AlignedStateAt).
	nz := len(e.cfg.Categories)
	var popCorpus [][]bihmm.Obs
	for k, id := range ids {
		obs := e.consumerObs[id]
		if len(popCorpus) < e.cfg.MaxPopulationSeqs {
			popCorpus = append(popCorpus, obs)
		}
		if len(obs) < e.cfg.MinConsumerHistory {
			continue
		}
		if e.cfg.AutoSelectStates {
			_, m, _ := bihmm.SelectConsumerStates(obs, e.cfg.ConsumerStates, nz,
				len(e.cfg.Categories), e.cfg.Seed+int64(k)*31, opts)
			if m != nil {
				e.consumers[id] = m
			}
			continue
		}
		m, _, err := bihmm.Fit(e.cfg.ConsumerStates, nz, len(e.cfg.Categories),
			[][]bihmm.Obs{obs}, e.cfg.Seed+int64(k)*31, opts)
		if err == nil {
			e.consumers[id] = m
		}
	}
	if len(popCorpus) > 0 {
		if m, _, err := bihmm.Fit(e.cfg.ConsumerStates, nz, len(e.cfg.Categories),
			popCorpus, e.cfg.Seed+7, opts); err == nil {
			e.population = m
		}
	}

	// Build the index with BiHMM-backed probabilities.
	ix, err := buildIndex(e)
	if err != nil {
		return err
	}
	e.index = ix
	e.trained = true
	return nil
}

// buildIndex constructs the CPPse-index from the engine's current state.
func buildIndex(e *Engine) (*cppse.Index, error) {
	ix, err := cppse.Build(e.store, e.bg, e.probs(), e.indexConfig())
	if err != nil {
		return nil, fmt.Errorf("core: index build: %w", err)
	}
	return ix, nil
}

// buildIndexFromState reconstructs the CPPse-index pinned to a captured
// block clustering instead of re-clustering — the load path that makes a
// snapshot-seeded engine observably identical to one that never
// restarted.
func buildIndexFromState(e *Engine, st cppse.State) (*cppse.Index, error) {
	ix, err := cppse.BuildFromState(e.store, e.bg, e.probs(), e.indexConfig(), st)
	if err != nil {
		return nil, fmt.Errorf("core: index rebuild from state: %w", err)
	}
	return ix, nil
}

func (e *Engine) indexConfig() cppse.Config {
	var owns func(string) bool
	if e.cfg.sharded() {
		owns = e.cfg.ownsUser
	}
	return cppse.Config{
		Categories:   e.cfg.Categories,
		LambdaS:      e.cfg.LambdaS,
		Mu:           e.cfg.Mu,
		SimThreshold: e.cfg.SimThreshold,
		MaxBlocks:    e.cfg.MaxBlocks,
		FixedBlocks:  e.cfg.FixedBlocks,
		Fanout:       e.cfg.Fanout,
		Owns:         owns,
	}
}

// obsFor converts an item into the consumer observation (category index,
// producer state of the item).
func (e *Engine) obsFor(v model.Item) bihmm.Obs {
	ci, ok := e.catIdx[v.Category]
	if !ok {
		ci = 0
	}
	z, ok := e.itemZ[v.ID]
	if !ok {
		z = bihmm.ZUnknown
	}
	return bihmm.Obs{Cat: ci, Z: z}
}

// RegisterItem tells the engine about a newly arrived item: its producer's
// layer advances (assigning the item a decoded state) and, unless updates
// are disabled, the expander absorbs its entity co-occurrences. Recommend
// calls this implicitly for unseen items.
func (e *Engine) RegisterItem(v model.Item) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.registerItemLocked(v)
}

func (e *Engine) registerItemLocked(v model.Item) {
	if _, known := e.itemZ[v.ID]; known {
		return
	}
	ci, ok := e.catIdx[v.Category]
	if !ok {
		e.itemZ[v.ID] = bihmm.ZUnknown
		return
	}
	if e.producers != nil {
		e.producers.ObserveItem(v.Producer, ci)
		e.itemZ[v.ID] = e.producers.AlignedStateAt(v.Producer, e.prodPos[v.Producer])
	} else {
		e.itemZ[v.ID] = bihmm.ZUnknown
	}
	e.prodPos[v.Producer]++
	if !e.cfg.DisableUpdates {
		e.expander.Observe(v.Category, v.Entities)
	}
}

// Observe implements the Recommender interface: one user-item interaction
// from the stream. It maintains the profile (window → long-term flush),
// the observation sequence and — unless disabled — the user's index
// entries per Algorithm 2.
func (e *Engine) Observe(ir model.Interaction, v model.Item) {
	if e.cfg.DisableUpdates {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observeLocked(ir, v)
	if e.index == nil {
		return
	}
	if e.cfg.UpdateBatch <= 1 || e.sinceFlush >= e.cfg.UpdateBatch {
		e.flushUpdatesLocked()
	}
}

// observeLocked applies one interaction to the profile, observation and
// prediction state and marks the user for index maintenance. The caller
// decides when the dirty set is flushed: per interaction (Observe with
// UpdateBatch <= 1), per UpdateBatch interactions, or once per micro-batch
// (ObserveBatch) — flushing is idempotent on the final profile state, so
// every policy converges to the same index.
func (e *Engine) observeLocked(ir model.Interaction, v model.Item) {
	e.registerItemLocked(v)
	p := e.store.Get(ir.UserID)
	rolled := p.Observe(profile.EventFromItem(v, ir.Timestamp))
	e.consumerObs[ir.UserID] = append(e.consumerObs[ir.UserID], e.obsFor(v))
	if ce := e.predCache[ir.UserID]; ce != nil {
		ce.obsLen = -1
	}
	if e.index == nil {
		return
	}
	e.dirty[ir.UserID] = e.dirty[ir.UserID] || rolled
	e.sinceFlush++
}

// FlushUpdates applies all pending batched index maintenance (Algorithm 2)
// and returns how many users were refreshed.
func (e *Engine) FlushUpdates() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushUpdatesLocked()
}

func (e *Engine) flushUpdatesLocked() int {
	if e.index == nil || len(e.dirty) == 0 {
		e.sinceFlush = 0
		return 0
	}
	ids := e.flushIDs[:0]
	for id := range e.dirty {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Every dirty user runs a refresh — the routing metadata (block
	// assignment, universes, hash) must advance on every shard — but only
	// owned users count as refreshed: they are the ones whose signatures
	// were recomputed, and summing the count across shards must equal the
	// single-engine figure. Leaf rebuilds and universe growth run only for
	// users whose window rolled; SetFullRefresh restores the
	// rebuild-everything reference path (every user as if rolled).
	n := 0
	for _, id := range ids {
		if err := e.index.RefreshUser(id, e.dirty[id] || e.fullRefresh); err != nil {
			e.refreshErrs++
			if e.refreshErrs == 1 {
				log.Printf("core: index refresh failed for user %q: %v (further failures counted in refresh_errors)", id, err)
			}
		} else if e.cfg.ownsUser(id) {
			n++
		}
	}
	clear(e.dirty)
	clear(ids)
	e.flushIDs = ids[:0]
	e.sinceFlush = 0
	return n
}

// RefreshErrors reports how many index refreshes have failed during
// flushes since the engine was created (concurrency-safe). A non-zero
// value means some user's index entries may lag their profile — surfaced
// as refresh_errors in /v2/stats.
func (e *Engine) RefreshErrors() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.refreshErrs
}

// Recommend implements the Recommender interface: top-k users for an
// incoming item via the CPPse-index (Algorithm 1).
func (e *Engine) Recommend(v model.Item, k int) []model.Recommendation {
	recs, _ := e.RecommendStats(v, k)
	return recs
}

// RecommendStats additionally reports the index search statistics.
//
// Overlapping calls run concurrently under the read lock; the call
// briefly upgrades to the write lock when the item is unseen (it must be
// registered) or batched maintenance is pending (stale entries must not
// be served).
func (e *Engine) RecommendStats(v model.Item, k int) ([]model.Recommendation, sigtree.SearchStats) {
	if !e.queryPrologue(v) {
		return nil, sigtree.SearchStats{}
	}
	defer e.mu.RUnlock()
	sc := ranking.GetQueryScratch()
	defer ranking.PutQueryScratch(sc)
	q := e.buildQueryScratch(sc, v, false)
	return e.index.Recommend(q, k)
}

// RecommendScan is the pruning-free arm (AblationPruning): identical
// candidates and scores, every leaf scored.
func (e *Engine) RecommendScan(v model.Item, k int) []model.Recommendation {
	if !e.queryPrologue(v) {
		return nil
	}
	defer e.mu.RUnlock()
	sc := ranking.GetQueryScratch()
	defer ranking.PutQueryScratch(sc)
	return e.index.RecommendScan(e.buildQueryScratch(sc, v, false), k)
}

// queryPrologue prepares a query: it leaves the engine read-locked and
// ready to serve (returning true), or unlocked (returning false) when the
// engine is untrained. Unseen items and pending batched maintenance are
// handled under a transient write lock before the read lock is
// re-acquired.
func (e *Engine) queryPrologue(v model.Item) bool {
	e.mu.RLock()
	for {
		if !e.trained {
			e.mu.RUnlock()
			return false
		}
		_, known := e.itemZ[v.ID]
		if known && len(e.dirty) == 0 {
			return true
		}
		// Upgrade. A writer may slip in between Unlock and RLock and
		// re-dirty the index, so loop until the read-locked check holds —
		// stale entries must never be served.
		e.mu.RUnlock()
		e.mu.Lock()
		e.flushUpdatesLocked()
		e.registerItemLocked(v)
		e.mu.Unlock()
		e.mu.RLock()
	}
}

// BuildQuery prepares the weighted entity query for an item, applying
// expansion unless disabled.
func (e *Engine) BuildQuery(v model.Item) ranking.ItemQuery {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.buildQueryLocked(v)
}

func (e *Engine) buildQueryLocked(v model.Item) ranking.ItemQuery {
	x := e.expander
	if e.cfg.DisableExpansion {
		x = nil
	}
	return ranking.BuildQuery(v, x)
}

// buildQueryScratch builds the query into pooled scratch storage (the
// allocation-free hot path). The returned query aliases sc and must be
// consumed before the scratch is released.
func (e *Engine) buildQueryScratch(sc *ranking.QueryScratch, v model.Item, noExpansion bool) ranking.ItemQuery {
	x := e.expander
	if e.cfg.DisableExpansion || noExpansion {
		x = nil
	}
	return sc.BuildQuery(v, x)
}

// probs returns the cppse.Probs implementation backed by the BiHMM layers.
func (e *Engine) probs() cppse.Probs { return engineProbs{e} }

type engineProbs struct{ e *Engine }

// Long returns the cached long-term BiHMM probability p(c|u).
func (p engineProbs) Long(userID, category string) float64 {
	return p.e.categoryProb(userID, category, false)
}

// Short returns the cached short-term probability ps(c|u) over the window.
func (p engineProbs) Short(userID, category string) float64 {
	return p.e.categoryProb(userID, category, true)
}

// categoryProb computes (with caching) the predictive category
// distribution of a user from its BiHMM: the long-term side conditions on
// the full history minus the window; the short-term side on the window
// alone.
func (e *Engine) categoryProb(userID, category string, short bool) float64 {
	ci, ok := e.catIdx[category]
	if !ok {
		return 1e-9
	}
	obs := e.consumerObs[userID]
	ce := e.predCache[userID]
	if ce == nil || ce.obsLen != len(obs) {
		if ce == nil {
			ce = e.newPredEntry(userID)
		}
		e.predScratch = e.predict(ce, userID, obs, e.predScratch)
	}
	if short {
		return ce.short[ci]
	}
	return ce.long[ci]
}

// Prepare implements cppse.Preparer: it brings the cached predictions of
// the users a build writes leaves for up to date, so the build's Long and
// Short calls only read predCache.
func (p engineProbs) Prepare(userIDs []string) { p.e.preparePredictions(userIDs) }

// preparePredictions refreshes the cached predictions of those of userIDs
// whose entry is missing or stale, on runtime.GOMAXPROCS(0) workers with
// one prediction scratch each. The entries are made and registered here,
// serially, so each worker writes only the entries it computes; every
// entry is computed as categoryProb computes it, so the cache holds the
// same users and the same rows as a build that filled it lazily.
func (e *Engine) preparePredictions(userIDs []string) {
	type job struct {
		id  string
		ce  *predEntry
		obs []bihmm.Obs
	}
	var jobs []job
	for _, id := range userIDs {
		obs := e.consumerObs[id]
		ce := e.predCache[id]
		if ce != nil && ce.obsLen == len(obs) {
			continue
		}
		if ce == nil {
			ce = e.newPredEntry(id)
		}
		jobs = append(jobs, job{id, ce, obs})
	}
	var next atomic.Int64
	work := func() {
		var scratch []float64
		for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
			j := &jobs[i]
			scratch = e.predict(j.ce, j.id, j.obs, scratch)
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

// newPredEntry registers an empty prediction entry for a user.
func (e *Engine) newPredEntry(userID string) *predEntry {
	nCats := len(e.cfg.Categories)
	rows := make([]float64, 2*nCats)
	ce := &predEntry{long: rows[:nCats:nCats], short: rows[nCats:], longLen: -1}
	e.predCache[userID] = ce
	return ce
}

// predict recomputes ce, the cached predictions of userID, from its
// observations obs, and returns scratch grown to the model's
// PredictScratchLen. It writes only ce and scratch. The forward states
// fold only the observations that arrived since the last refresh; the
// observation stream is append-only, so the cached long state is a valid
// prefix whenever it is bound to the same model and no longer than the
// needed one — even across a window roll, which only moves the long/short
// boundary forward. A state replays from scratch when it cannot prove
// prefix-ness: the consumer's model changed (per-user model vs
// population), the cached prefix is too long, or the window start moved
// (the short side after a roll; at most WindowSize observations). The long
// row is predicted again only when its prefix grew or its state was reset,
// so between rolls only the short side predicts. The fold
// replays Forward's recurrence and the prediction PredictNextMarginal's
// statements, so the rows — and every downstream score — are bitwise
// identical to a full replay of the history.
func (e *Engine) predict(ce *predEntry, userID string, obs []bihmm.Obs, scratch []float64) []float64 {
	nCats := len(e.cfg.Categories)
	ce.obsLen = len(obs)
	m := e.consumers[userID]
	if m == nil {
		m = e.population
	}
	if m == nil {
		for i := range ce.long {
			ce.long[i] = 1 / float64(nCats)
			ce.short[i] = 1 / float64(nCats)
		}
		ce.longLen = -1
		return scratch
	}
	winLen := 0
	if p, ok := e.store.Lookup(userID); ok {
		winLen = p.WindowLen()
	}
	if winLen > len(obs) {
		winLen = len(obs)
	}
	longObs := obs[:len(obs)-winLen]
	shortObs := obs[len(obs)-winLen:]
	if !ce.longSt.For(m) || ce.longSt.Len() > len(longObs) {
		ce.longSt.Reset(m)
		ce.longLen = -1
	}
	m.Extend(&ce.longSt, longObs[ce.longSt.Len():])
	shortStart := len(longObs)
	if !ce.shortSt.For(m) || ce.shortStart != shortStart || ce.shortSt.Len() > len(shortObs) {
		ce.shortSt.Reset(m)
		ce.shortStart = shortStart
	}
	m.Extend(&ce.shortSt, shortObs[ce.shortSt.Len():])
	if n := m.PredictScratchLen(); len(scratch) < n {
		scratch = make([]float64, n)
	}
	if ce.longLen != len(longObs) {
		m.PredictNextMarginalState(&ce.longSt, nil, ce.long, scratch)
		ce.longLen = len(longObs)
	}
	m.PredictNextMarginalState(&ce.shortSt, nil, ce.short, scratch)
	return scratch
}

// SetFullRefresh switches index maintenance onto the rebuild-everything
// reference path (true: every flush runs cppse.UpdateUser for each dirty
// user, rebuilding all of its leaves and re-adding all of its names as if
// its window had rolled). It is the conformance oracle the roll-gated
// refresh is proven bit-identical against, not a tuning knob; it is not
// persisted in snapshots.
func (e *Engine) SetFullRefresh(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fullRefresh = on
}

// Trained reports whether Train has completed (concurrency-safe).
func (e *Engine) Trained() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.trained
}

// Shard reports the engine's position in its deployment (idx of n;
// 0 of 1 when unsharded). Concurrency-safe.
func (e *Engine) Shard() (idx, n int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.cfg.ShardCount <= 1 {
		return 0, 1
	}
	return e.cfg.ShardIndex, e.cfg.ShardCount
}

// Users returns the number of known profiles (concurrency-safe).
func (e *Engine) Users() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.Len()
}

// IndexStats snapshots the CPPse-index statistics (concurrency-safe).
// ok is false before Train.
func (e *Engine) IndexStats() (stats cppse.IndexStats, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.index == nil {
		return stats, false
	}
	return e.index.Stats(), true
}

// IndexStatsView is the concurrency-safe subset of cppse.IndexStats, plus
// the engine-level refresh-error counter.
type IndexStatsView struct {
	Blocks   int
	Trees    int
	Users    int
	HashKeys int
	// RefreshErrors counts failed index refreshes (Engine.RefreshErrors).
	RefreshErrors int64
}

// IndexView snapshots the index statistics as an IndexStatsView (zero
// index figures before Train; RefreshErrors is engine-level and reported
// regardless). Concurrency-safe.
func (e *Engine) IndexView() IndexStatsView {
	v := IndexStatsView{RefreshErrors: e.RefreshErrors()}
	if st, ok := e.IndexStats(); ok {
		v.Blocks, v.Trees, v.Users, v.HashKeys = st.Blocks, st.Trees, st.Users, st.HashKeys
	}
	return v
}

// Store exposes the profile store (read-mostly; used by experiments).
func (e *Engine) Store() *profile.Store { return e.store }

// Index exposes the CPPse-index (used by experiments and stats reporting).
func (e *Engine) Index() *cppse.Index { return e.index }

// Expander exposes the entity expander.
func (e *Engine) Expander() *entity.Expander { return e.expander }

// ProducerLayer exposes the a-HMM layer.
func (e *Engine) ProducerLayer() *bihmm.ProducerLayer { return e.producers }

// ConsumerModelCount reports how many consumers got their own b-HMM.
func (e *Engine) ConsumerModelCount() int { return len(e.consumers) }
