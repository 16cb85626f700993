// api.go is the engine's v2 service contract: context-aware, batch-first
// calls with structured errors and functional options.
//
//   - RecommendCtx / RecommendBatch serve top-k queries with per-call
//     options (WithK, WithParallelism, WithoutExpansion), sentinel errors
//     (ErrNotTrained, ErrUnknownCategory) and ctx cancellation propagated
//     into the sigtree search loop.
//   - ObserveBatch ingests a micro-batch of interactions under ONE write
//     lock acquisition and ONE index flush, amortising the per-interaction
//     locking of Observe so writers don't starve the read path under heavy
//     streams (the ROADMAP's batched-ingestion item).
//
// The v1 methods (Recommend, Observe, ...) remain as thin equivalents —
// same results, no error reporting — for existing callers.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"ssrec/internal/model"
	"ssrec/internal/ranking"
	"ssrec/internal/sigtree"
	"ssrec/internal/telemetry"
)

// Sentinel errors of the v2 API. Wrap-aware callers match with errors.Is.
var (
	// ErrNotTrained is returned when a query arrives before Train.
	ErrNotTrained = errors.New("ssrec: engine not trained")
	// ErrUnknownCategory marks an item whose category is outside the
	// engine's configured universe: no tree can ever match it.
	ErrUnknownCategory = errors.New("ssrec: unknown category")
	// ErrInvalidObservation marks a batch entry that failed validation
	// (missing user or item ID) and was skipped.
	ErrInvalidObservation = errors.New("ssrec: invalid observation")
)

// QueryOptions collects the per-call knobs of RecommendCtx/RecommendBatch.
// Construct it through Option values; the zero value means "engine
// defaults" (k=10, configured parallelism, configured expansion).
type QueryOptions struct {
	// K is the result size. <= 0 takes DefaultK.
	K int
	// Parallelism overrides Config.Parallelism for this call when > 0.
	Parallelism int
	// NoExpansion disables entity expansion for this call only (the
	// per-query form of Config.DisableExpansion).
	NoExpansion bool
}

// DefaultK is the result size when no WithK option is given.
const DefaultK = 10

// Option mutates QueryOptions — the functional-options pattern of the v2
// query surface.
type Option func(*QueryOptions)

// WithK sets the number of users to return.
func WithK(k int) Option { return func(o *QueryOptions) { o.K = k } }

// WithParallelism overrides the partitioned-search worker count for this
// call only; n <= 0 keeps the engine's configured value.
func WithParallelism(n int) Option { return func(o *QueryOptions) { o.Parallelism = n } }

// WithoutExpansion disables proximity entity expansion for this call.
func WithoutExpansion() Option { return func(o *QueryOptions) { o.NoExpansion = true } }

func applyOptions(opts []Option) QueryOptions {
	var o QueryOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.K <= 0 {
		o.K = DefaultK
	}
	return o
}

// ResolveOptions folds Option values into the concrete QueryOptions an
// engine call would use (defaults applied). The shard router resolves
// options once and forwards the plain struct to every shard — QueryOptions
// is wire-encodable, a []Option is not.
func ResolveOptions(opts ...Option) QueryOptions { return applyOptions(opts) }

// Result is one item's answer from the v2 query surface.
type Result struct {
	ItemID          string
	Recommendations []model.Recommendation
	Stats           sigtree.SearchStats
	// Err is the per-item error inside a batch (nil on success). Batch
	// calls report item-scoped failures here and reserve their error
	// return for call-scoped failures (cancellation, untrained engine).
	Err error
}

// RecommendCtx is the v2 single-item query: top-k users for an incoming
// item with per-call options, structured errors and cooperative
// cancellation (ctx is polled inside the branch-and-bound search loop).
// Results are identical to Recommend(v, k) for a trained engine, a known
// category and a never-cancelled context.
func (e *Engine) RecommendCtx(ctx context.Context, v model.Item, opts ...Option) (Result, error) {
	o := applyOptions(opts)
	return e.recommendOne(ctx, v, o, nil)
}

// RecommendBound is the shard-local leg of a scatter-gather query: the
// same search as RecommendCtx, but pruning against — and raising — the
// deployment-wide bound shared by every shard answering this item. The
// returned list covers only the users this engine's index owns; the
// router merges the per-shard lists (sigtree.MergeTopK). K must already
// be resolved in o (use ResolveOptions).
func (e *Engine) RecommendBound(ctx context.Context, v model.Item, o QueryOptions, b *sigtree.Bound) (Result, error) {
	if o.K <= 0 {
		o.K = DefaultK
	}
	return e.recommendOne(ctx, v, o, b)
}

func (e *Engine) recommendOne(ctx context.Context, v model.Item, o QueryOptions, b *sigtree.Bound) (Result, error) {
	res := Result{ItemID: v.ID}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return res, err
		}
	}
	if !e.queryPrologue(v) {
		return res, ErrNotTrained
	}
	defer e.mu.RUnlock()
	if _, ok := e.catIdx[v.Category]; !ok {
		return res, fmt.Errorf("%w: %q", ErrUnknownCategory, v.Category)
	}
	sc := ranking.GetQueryScratch()
	defer ranking.PutQueryScratch(sc)
	q := e.buildQueryScratch(sc, v, o.NoExpansion)
	span := telemetry.LeafSpan(ctx, "sigtree.search")
	recs, stats, err := e.index.RecommendBound(ctx, q, o.K, o.Parallelism, b)
	span.SetAttr("item", v.ID)
	span.SetAttr("nodes", strconv.Itoa(stats.NodesVisited))
	span.SetAttr("scored", strconv.Itoa(stats.EntriesScored))
	span.End()
	res.Recommendations, res.Stats = recs, stats
	return res, err
}

// RecommendBatch answers many items in one call: unseen items are
// registered and pending maintenance flushed under a single write-lock
// upgrade, then the queries fan out across GOMAXPROCS workers on the read
// lock. results[i] corresponds to items[i]; item-scoped failures (unknown
// category) land in results[i].Err while the call-scoped error reports
// cancellation (ctx.Err()) or ErrNotTrained. On cancellation every
// undispatched item is marked with ctx.Err() and partial results are
// returned.
func (e *Engine) RecommendBatch(ctx context.Context, items []model.Item, opts ...Option) ([]Result, error) {
	o := applyOptions(opts)
	results := make([]Result, len(items))
	if len(items) == 0 {
		return results, nil
	}
	if !e.Trained() {
		for i := range results {
			results[i] = Result{ItemID: items[i].ID, Err: ErrNotTrained}
		}
		return results, ErrNotTrained
	}
	// Amortised prologue: ONE write-lock upgrade registers every unseen
	// item (in batch order) and flushes pending maintenance, so the
	// per-item queryPrologue stays on its read-locked fast path. The shard
	// router broadcasts this same prologue; both paths share
	// RegisterItemBatch so their semantics cannot drift.
	e.RegisterItemBatch(items)

	workers := runtime.GOMAXPROCS(0)
	if workers > len(items) {
		workers = len(items)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				res, err := e.recommendOne(ctx, items[i], o, nil)
				if err != nil {
					res.Err = err
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return results, err
		}
	}
	return results, nil
}

// RegisterItemBatch registers many items under ONE write lock, in batch
// order, then flushes pending index maintenance — the deterministic batch
// prologue of RecommendBatch, exposed so the shard router can broadcast it
// to every shard before scattering a query batch (concurrent per-item
// registration would advance the producer layer in nondeterministic order
// and the shards would drift apart). A fully warmed batch takes only the
// read lock.
//
// The return reports whether any PREVIOUSLY-UNSEEN item was registered —
// i.e. whether the call advanced the replicated dictionaries. A warm
// batch (and a dirty-flush-only call, which is shard-local maintenance)
// reports false; the shard router uses this to decide whether an
// excluded shard that skipped the broadcast actually fell behind.
func (e *Engine) RegisterItemBatch(items []model.Item) bool {
	if !e.NeedsRegistration(items) {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	changed := false
	for _, v := range items {
		if _, known := e.itemZ[v.ID]; !known {
			changed = true
		}
		e.registerItemLocked(v)
	}
	e.flushUpdatesLocked()
	return changed
}

// NeedsRegistration reports whether RegisterItemBatch(items) would change
// anything: some item is previously unseen, or index maintenance is
// pending. It is RegisterItemBatch's own fast-path test, read-locked and
// mutation-free. The durable engine (internal/wal) logs a registration
// exactly when this is true, so a warm batch costs no log record.
func (e *Engine) NeedsRegistration(items []model.Item) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.dirty) > 0 {
		return true
	}
	for _, v := range items {
		if _, known := e.itemZ[v.ID]; !known {
			return true
		}
	}
	return false
}

// Observation is one user-item interaction prepared for batched ingestion.
type Observation struct {
	UserID    string
	Item      model.Item
	Timestamp int64
}

func (o Observation) interaction() model.Interaction {
	return model.Interaction{UserID: o.UserID, ItemID: o.Item.ID, Timestamp: o.Timestamp}
}

func (o Observation) validate() error {
	if o.UserID == "" {
		return fmt.Errorf("%w: empty user id", ErrInvalidObservation)
	}
	if o.Item.ID == "" {
		return fmt.Errorf("%w: empty item id", ErrInvalidObservation)
	}
	return nil
}

// ObservationError records one rejected entry of an ObserveBatch call.
type ObservationError struct {
	Index int // position in the submitted batch
	Err   error
}

// BatchReport summarises one ObserveBatch call.
type BatchReport struct {
	// Applied counts observations folded into profiles.
	Applied int
	// Rejected counts observations skipped by validation.
	Rejected int
	// Flushed counts users whose index entries were refreshed by the
	// batch's single maintenance flush.
	Flushed int
	// Errors details each rejected observation.
	Errors []ObservationError
}

// obsCtxCheckEvery is how many batch entries pass between context polls
// while the write lock is held.
const obsCtxCheckEvery = 64

// ObserveBatch ingests a micro-batch of interactions under ONE write-lock
// acquisition and ONE index maintenance flush — the amortised counterpart
// of per-interaction Observe. The final engine state is identical to
// calling Observe per entry (index maintenance is idempotent on the final
// profile state); only the locking and flush cadence differ.
//
// Invalid entries are skipped and reported in the BatchReport. When ctx
// is cancelled mid-batch the already-applied prefix is flushed (so the
// index never serves stale entries), the report covers what was applied,
// and ctx.Err() is returned. With Config.DisableUpdates the call is a
// no-op, mirroring Observe.
func (e *Engine) ObserveBatch(ctx context.Context, batch []Observation) (BatchReport, error) {
	var rep BatchReport
	if len(batch) == 0 || e.cfg.DisableUpdates {
		return rep, nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, o := range batch {
		if ctx != nil && i%obsCtxCheckEvery == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				rep.Flushed = e.flushUpdatesLocked()
				return rep, err
			}
		}
		if err := o.validate(); err != nil {
			rep.Rejected++
			rep.Errors = append(rep.Errors, ObservationError{Index: i, Err: err})
			continue
		}
		e.observeLocked(o.interaction(), o.Item)
		rep.Applied++
	}
	rep.Flushed = e.flushUpdatesLocked()
	return rep, nil
}
