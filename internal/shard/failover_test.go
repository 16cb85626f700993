// failover_test.go tests the Router's degraded-mode policy in isolation,
// with stub shards that fail on command — no network involved, so every
// branch (exclusion, partial merge, probe gating, handoff re-inclusion)
// is exercised deterministically. The end-to-end lifecycle over the real
// transport lives in internal/shardrpc/failover_test.go.
package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/sigtree"
)

// stubShard wraps a real Local shard and can be switched into failure
// mode, where every call reports ErrShardUnavailable. It implements
// Pinger and SnapshotReceiver so the probe/handoff paths are testable.
type stubShard struct {
	inner    *Local
	failing  atomic.Bool // transport-style failure: ErrShardUnavailable
	fatal    atomic.Bool // clean refusal: plain error, batch NOT applied
	pingOK   atomic.Bool
	calls    atomic.Int64 // serving calls attempted while failing or not
	handoffs atomic.Int64
	epoch    atomic.Int64 // bumped per accepted handoff (a re-seed)
}

func (s *stubShard) Index() int { return s.inner.Index() }

func (s *stubShard) err(op string) error {
	return errors.New("stub " + op + ": " + ErrShardUnavailable.Error())
}

func (s *stubShard) RegisterItems(ctx context.Context, items []model.Item) (bool, error) {
	s.calls.Add(1)
	if s.failing.Load() {
		return false, errors.Join(ErrShardUnavailable, s.err("register"))
	}
	if s.fatal.Load() {
		return false, errors.New("stub register: refused (fatal)")
	}
	return s.inner.RegisterItems(ctx, items)
}

func (s *stubShard) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	s.calls.Add(1)
	if s.failing.Load() {
		return core.BatchReport{}, errors.Join(ErrShardUnavailable, s.err("observe"))
	}
	if s.fatal.Load() {
		return core.BatchReport{}, errors.New("stub observe: refused (fatal)")
	}
	return s.inner.ObserveBatch(ctx, batch)
}

func (s *stubShard) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, error) {
	s.calls.Add(1)
	if s.failing.Load() {
		return core.Result{ItemID: v.ID}, errors.Join(ErrShardUnavailable, s.err("recommend"))
	}
	return s.inner.Recommend(ctx, v, o, b)
}

func (s *stubShard) Stats() Stats {
	if s.failing.Load() {
		return Stats{Shard: s.inner.Index()}
	}
	return s.inner.Stats()
}

func (s *stubShard) Ping(ctx context.Context) (string, error) {
	if !s.pingOK.Load() {
		return "", errors.Join(ErrShardUnavailable, errors.New("stub ping refused"))
	}
	return fmt.Sprintf("epoch-%d", s.epoch.Load()), nil
}

func (s *stubShard) Handoff(ctx context.Context, snapshot []byte) error {
	s.handoffs.Add(1)
	if s.failing.Load() && !s.pingOK.Load() {
		return errors.Join(ErrShardUnavailable, errors.New("stub handoff refused"))
	}
	s.epoch.Add(1)
	return nil
}

// stubDeployment builds a 2-shard router where both shards are stubs
// over real engine shards booted from the conformance snapshot.
func stubDeployment(t *testing.T) (*Router, []*stubShard) {
	t.Helper()
	fx := fixture(t)
	stubs := make([]*stubShard, 2)
	shards := make([]Shard, 2)
	for i := range shards {
		e, err := core.LoadShardFrom(bytes.NewReader(fx.Snapshot), i, 2)
		if err != nil {
			t.Fatalf("boot shard %d: %v", i, err)
		}
		stubs[i] = &stubShard{inner: NewLocal(i, e)}
		shards[i] = stubs[i]
	}
	r, err := NewRouter(shards...)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	return r, stubs
}

func TestRouterDegradedRecommend(t *testing.T) {
	fx := fixture(t)
	r, stubs := stubDeployment(t)
	ctx := context.Background()

	healthy, err := r.RecommendCtx(ctx, fx.Queries[0], core.WithK(10))
	if err != nil {
		t.Fatalf("healthy: %v", err)
	}

	stubs[1].failing.Store(true)
	res, err := r.RecommendCtx(ctx, fx.Queries[1], core.WithK(10))
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("degraded err = %v, want ErrShardUnavailable", err)
	}
	if len(res.Recommendations) == 0 {
		t.Fatal("degraded mode returned no partial results")
	}
	if down := r.Down(); !reflect.DeepEqual(down, []int{1}) {
		t.Fatalf("Down() = %v, want [1]", down)
	}

	// Exclusion: the failed shard receives no further serving calls.
	before := stubs[1].calls.Load()
	if _, err := r.RecommendCtx(ctx, fx.Queries[2], core.WithK(10)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("excluded recommend: %v", err)
	}
	if after := stubs[1].calls.Load(); after != before {
		t.Fatalf("excluded shard received %d call(s)", after-before)
	}

	// The healthy shard's answers are still exact for its owned users:
	// every returned entry appears in the full deployment's answer.
	full := map[string]float64{}
	for _, rec := range healthy.Recommendations {
		full[rec.UserID] = rec.Score
	}
	partial, _ := r.RecommendCtx(ctx, fx.Queries[0], core.WithK(10))
	for _, rec := range partial.Recommendations {
		if want, ok := full[rec.UserID]; ok && want != rec.Score {
			t.Fatalf("degraded score drifted for %s: %v vs %v", rec.UserID, rec.Score, want)
		}
	}
}

func TestRouterDegradedObserveAndBatch(t *testing.T) {
	fx := fixture(t)
	r, stubs := stubDeployment(t)
	ctx := context.Background()
	stubs[0].failing.Store(true)

	rep, err := r.ObserveBatch(ctx, fx.Obs[:32])
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("observe err = %v", err)
	}
	if rep.Applied != 32 {
		t.Fatalf("healthy shard applied %d, want 32", rep.Applied)
	}
	if down := r.Down(); !reflect.DeepEqual(down, []int{0}) {
		t.Fatalf("Down() = %v, want [0]", down)
	}

	// RecommendBatch: per-item degraded errors, call-level nil, readiness
	// answered by the surviving shard (trained() must skip excluded ones).
	results, err := r.RecommendBatch(ctx, fx.Queries[:3], core.WithK(5))
	if err != nil {
		t.Fatalf("batch err = %v", err)
	}
	for i, res := range results {
		if !errors.Is(res.Err, ErrShardUnavailable) {
			t.Fatalf("item %d err = %v, want degraded", i, res.Err)
		}
		if res.ItemID != fx.Queries[i].ID {
			t.Fatalf("item %d id = %q", i, res.ItemID)
		}
	}

	// v1 accessors survive shard 0 being down (first-healthy fallback:
	// the answer comes from shard 1's stats, not shard 0's zero values).
	if r.Users() == 0 {
		t.Fatal("Users() = 0 with a healthy shard present")
	}
	if got, want := r.Parallelism(), stubs[1].inner.Stats().Parallelism; got != want {
		t.Fatalf("Parallelism() = %d, want healthy shard's %d", got, want)
	}
	if st := r.IndexView(); st.Trees == 0 {
		t.Fatal("IndexView() empty with a healthy shard present")
	}
	if recs := r.Recommend(fx.Queries[3], 5); len(recs) == 0 {
		t.Fatal("v1 Recommend dropped degraded partial results")
	}
	r.RegisterItem(fx.Queries[4])
	r.Observe(model.Interaction{UserID: "u", ItemID: fx.Queries[4].ID, Timestamp: 1}, fx.Queries[4])
}

func TestRouterProbeAndRecovery(t *testing.T) {
	fx := fixture(t)
	r, stubs := stubDeployment(t)
	ctx := context.Background()
	stubs[1].failing.Store(true)
	// The failed query's registration landed on shard 0, so shard 1 now
	// carries missed-write debt as well as being down.
	if _, err := r.RecommendCtx(ctx, fx.Queries[0], core.WithK(5)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("not excluded: %v", err)
	}

	// Ping refused → stays down.
	if up := r.Probe(ctx); len(up) != 0 {
		t.Fatalf("Probe re-included with ping refused: %v", up)
	}

	// Reachable again, but with missed writes and no proof of a re-seed:
	// the probe FAILS CLOSED (recording the observed epoch as baseline).
	stubs[1].failing.Store(false)
	stubs[1].pingOK.Store(true)
	if up := r.Probe(ctx); len(up) != 0 {
		t.Fatalf("Probe re-included a shard with missed writes and no re-seed proof: %v", up)
	}

	// The operator re-seeds the shardd directly (epoch changes): the next
	// probe can now PROVE the re-seed and re-includes it.
	stubs[1].epoch.Add(1)
	if up := r.Probe(ctx); !reflect.DeepEqual(up, []int{1}) {
		t.Fatalf("Probe = %v, want [1] after re-seed", up)
	}
	if down := r.Down(); len(down) != 0 {
		t.Fatalf("Down() = %v after recovery", down)
	}
	if _, err := r.RecommendCtx(ctx, fx.Queries[1], core.WithK(5)); err != nil {
		t.Fatalf("recovered recommend: %v", err)
	}
}

func TestRouterLazyProbeFromQueryPath(t *testing.T) {
	fx := fixture(t)
	r, stubs := stubDeployment(t)
	ctx := context.Background()
	r.SetProbeInterval(time.Nanosecond) // every query may kick a probe
	r.SetProbeInterval(0)               // 0 restores the default...
	r.SetProbeInterval(time.Nanosecond) // ...and back for the test

	// Warm the deployment, then exclude shard 1 under WARM traffic only:
	// the healthy shard proves every registration was a no-op, so the
	// blip leaves no missed-write debt.
	if _, err := r.RecommendCtx(ctx, fx.Queries[1], core.WithK(5)); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	stubs[1].failing.Store(true)
	if _, err := r.RecommendCtx(ctx, fx.Queries[1], core.WithK(5)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("not excluded: %v", err)
	}
	stubs[1].failing.Store(false)
	stubs[1].pingOK.Store(true)

	// The lazy probe is asynchronous; queries keep reporting degraded
	// until it lands, then the shard rejoins with no operator call (safe:
	// it missed nothing).
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := r.RecommendCtx(ctx, fx.Queries[1], core.WithK(5))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("unexpected error while waiting for lazy probe: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("lazy probe never re-included the recovered shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRouterHandoffSnapshotReincludes(t *testing.T) {
	fx := fixture(t)
	r, stubs := stubDeployment(t)
	ctx := context.Background()
	stubs[0].failing.Store(true)
	if _, err := r.ObserveBatch(ctx, fx.Obs[:8]); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("not excluded: %v", err)
	}

	// A refused handoff keeps the shard out and reports the failure.
	if err := r.HandoffSnapshot(ctx, fx.Snapshot); err == nil {
		t.Fatal("refused handoff reported success")
	}

	// An accepted handoff re-includes.
	stubs[0].failing.Store(false)
	if err := r.HandoffSnapshot(ctx, fx.Snapshot); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if down := r.Down(); len(down) != 0 {
		t.Fatalf("Down() = %v after handoff", down)
	}
	if stubs[0].handoffs.Load() < 2 || stubs[1].handoffs.Load() < 1 {
		t.Fatalf("handoff counts = %d/%d", stubs[0].handoffs.Load(), stubs[1].handoffs.Load())
	}
}

func TestRouterAllShardsDown(t *testing.T) {
	fx := fixture(t)
	r, stubs := stubDeployment(t)
	ctx := context.Background()
	stubs[0].failing.Store(true)
	stubs[1].failing.Store(true)

	res, err := r.RecommendCtx(ctx, fx.Queries[0], core.WithK(5))
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if len(res.Recommendations) != 0 {
		t.Fatalf("results from a fully-down deployment: %v", res.Recommendations)
	}
	if _, err := r.ObserveBatch(ctx, fx.Obs[:8]); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("observe err = %v", err)
	}
	if down := r.Down(); !reflect.DeepEqual(down, []int{0, 1}) {
		t.Fatalf("Down() = %v", down)
	}
}

func TestRouterSingleShardUnavailable(t *testing.T) {
	fx := fixture(t)
	e, err := core.LoadShardFrom(bytes.NewReader(fx.Snapshot), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubShard{inner: NewLocal(0, e)}
	r, err := NewRouter(stub)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.RecommendCtx(ctx, fx.Queries[0], core.WithK(5)); err != nil {
		t.Fatalf("healthy single: %v", err)
	}
	stub.failing.Store(true)
	if _, err := r.RecommendCtx(ctx, fx.Queries[1], core.WithK(5)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v", err)
	}
	// Now excluded: the single-shard fast path refuses without calling.
	before := stub.calls.Load()
	if _, err := r.RecommendCtx(ctx, fx.Queries[2], core.WithK(5)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if stub.calls.Load() != before {
		t.Fatal("excluded single shard still receives traffic")
	}
}

// TestRouterProbeRefusesStaleShard is the regression test for the
// stale-re-inclusion hole: a shard that stayed reachable AND trained
// through its exclusion window (a transient network fault — it never
// restarted) but missed replicated writes must NOT be re-included by a
// probe, because its index no longer matches its siblings'. Only a
// snapshot handoff (which changes its boot epoch) readmits it. A window
// with NO writes, by contrast, re-includes directly.
func TestRouterProbeRefusesStaleShard(t *testing.T) {
	fx := fixture(t)
	r, stubs := stubDeployment(t)
	ctx := context.Background()
	stubs[0].pingOK.Store(true)
	stubs[1].pingOK.Store(true)
	// Baseline handoff: boots the fleet and records both boot epochs.
	if err := r.HandoffSnapshot(ctx, fx.Snapshot); err != nil {
		t.Fatal(err)
	}

	// Transient fault: shard 1 errors once but keeps running (same epoch),
	// and a batch lands on the healthy shard while it is out.
	stubs[1].failing.Store(true)
	if _, err := r.ObserveBatch(ctx, fx.Obs[:16]); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("not excluded: %v", err)
	}
	stubs[1].failing.Store(false) // blip over — shard reachable, trained, STALE

	if up := r.Probe(ctx); len(up) != 0 {
		t.Fatalf("Probe re-included a stale shard: %v", up)
	}
	if down := r.Down(); !reflect.DeepEqual(down, []int{1}) {
		t.Fatalf("Down() = %v, want [1]", down)
	}

	// Re-seed via handoff: epoch changes, shard rejoins.
	if err := r.HandoffSnapshot(ctx, fx.Snapshot); err != nil {
		t.Fatal(err)
	}
	if down := r.Down(); len(down) != 0 {
		t.Fatalf("Down() = %v after handoff", down)
	}

	// Conservative corner: a batch that failed on EVERY shard has an
	// unknowable outcome (a failed remote leg may still have applied
	// server-side), so debt is recorded for all of them and the probe
	// refuses until a re-seed — correctness over convenience.
	stubs[0].failing.Store(true)
	stubs[1].failing.Store(true)
	if _, err := r.ObserveBatch(ctx, fx.Obs[16:32]); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("not excluded: %v", err)
	}
	stubs[0].failing.Store(false)
	stubs[1].failing.Store(false)
	if up := r.Probe(ctx); len(up) != 0 {
		t.Fatalf("Probe = %v, want refusal (all-failed batch outcome is unknowable)", up)
	}
	if err := r.HandoffSnapshot(ctx, fx.Snapshot); err != nil {
		t.Fatal(err)
	}
	if down := r.Down(); len(down) != 0 {
		t.Fatalf("Down() = %v after re-seed", down)
	}
}

// TestRouterTrainedSkipsUnreachableShard: readiness must be answered by
// ANY reachable trained shard — an unreachable shard 0 (zero-valued
// stats, not yet excluded) must not make a booted deployment report
// ErrNotTrained and starve the exclusion machinery that only runs on
// the serving path (regression test).
func TestRouterTrainedSkipsUnreachableShard(t *testing.T) {
	fx := fixture(t)
	r, stubs := stubDeployment(t)
	ctx := context.Background()
	stubs[0].failing.Store(true) // unreachable from the start, NOT marked down yet

	results, err := r.RecommendBatch(ctx, fx.Queries[:2], core.WithK(5))
	if errors.Is(err, core.ErrNotTrained) {
		t.Fatal("booted deployment misreported ErrNotTrained because shard 0 is unreachable")
	}
	if err != nil {
		t.Fatalf("call-level err = %v", err)
	}
	for i, res := range results {
		if !errors.Is(res.Err, ErrShardUnavailable) {
			t.Fatalf("item %d err = %v, want degraded partial", i, res.Err)
		}
	}
	if down := r.Down(); !reflect.DeepEqual(down, []int{0}) {
		t.Fatalf("Down() = %v, want [0] (serving path must exclude the unreachable shard)", down)
	}
}

// TestRouterWarmQueriesDoNotBlockRejoin is the regression test for debt
// over-accounting: querying ALREADY-REGISTERED items while a shard is
// excluded is a no-op on the replicated dictionaries (warm registration),
// so it must NOT pile missed-write debt on the excluded shard — a blip
// under ordinary read traffic heals with a probe, no snapshot handoff
// needed. Registering a genuinely NEW item, by contrast, does create
// debt and blocks re-inclusion until a re-seed.
func TestRouterWarmQueriesDoNotBlockRejoin(t *testing.T) {
	fx := fixture(t)
	r, stubs := stubDeployment(t)
	ctx := context.Background()
	stubs[0].pingOK.Store(true)
	stubs[1].pingOK.Store(true)

	// Warm the deployment: register the probe item everywhere.
	if _, err := r.RecommendCtx(ctx, fx.Queries[0], core.WithK(3)); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	// Blip: shard 1 starts failing; WARM queries keep flowing.
	stubs[1].failing.Store(true)
	for i := 0; i < 3; i++ {
		if _, err := r.RecommendCtx(ctx, fx.Queries[0], core.WithK(3)); !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("degraded warm query %d: %v", i, err)
		}
	}

	// Blip over: the shard missed nothing (all registrations were no-ops),
	// so a probe re-includes it with no epoch change and no handoff. The
	// degraded queries above kicked the lazy async probe, which may win
	// the race and re-include the shard before this synchronous Probe
	// runs, so assert on the exclusion set rather than on who cleared it.
	stubs[1].failing.Store(false)
	r.Probe(ctx)
	if down := r.Down(); len(down) != 0 {
		t.Fatalf("Down() = %v after probing, want [] (warm queries must not create debt)", down)
	}
	if _, err := r.RecommendCtx(ctx, fx.Queries[0], core.WithK(3)); err != nil {
		t.Fatalf("recommend after warm-blip recovery: %v", err)
	}

	// Second blip, but this time a NEW item is registered while the shard
	// is out: now there IS debt, and the probe must refuse until a
	// re-seed changes the epoch.
	stubs[1].failing.Store(true)
	if _, err := r.RecommendCtx(ctx, fx.Queries[5], core.WithK(3)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("degraded new-item query: %v", err)
	}
	stubs[1].failing.Store(false)
	if up := r.Probe(ctx); len(up) != 0 {
		t.Fatalf("Probe = %v, want refusal (new item registered during exclusion)", up)
	}
	// Neither probe path may re-include the shard without a re-seed.
	if down := r.Down(); !reflect.DeepEqual(down, []int{1}) {
		t.Fatalf("Down() = %v, want [1] until re-seed", down)
	}
	stubs[1].epoch.Add(1) // operator re-seeds
	r.Probe(ctx)
	if down := r.Down(); len(down) != 0 {
		t.Fatalf("Down() = %v after re-seed, want []", down)
	}
}

// TestRouterFatalWriteLegRecordsDebt: a clean non-transport failure on a
// replication leg (4xx refusal, version skew) means that shard did NOT
// apply a batch its siblings did — it must be excluded with missed-write
// debt, not left serving silently behind (regression test).
func TestRouterFatalWriteLegRecordsDebt(t *testing.T) {
	fx := fixture(t)
	r, stubs := stubDeployment(t)
	ctx := context.Background()
	stubs[1].pingOK.Store(true)
	stubs[1].fatal.Store(true)

	_, err := r.ObserveBatch(ctx, fx.Obs[:16])
	if err == nil || errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want the fatal leg error", err)
	}
	if down := r.Down(); !reflect.DeepEqual(down, []int{1}) {
		t.Fatalf("Down() = %v, want [1] (fatal leg must exclude)", down)
	}
	// Debt recorded: same-epoch probe refuses; re-seed readmits.
	stubs[1].fatal.Store(false)
	if up := r.Probe(ctx); len(up) != 0 {
		t.Fatalf("Probe = %v, want refusal (shard missed an applied batch)", up)
	}
	stubs[1].epoch.Add(1)
	if up := r.Probe(ctx); !reflect.DeepEqual(up, []int{1}) {
		t.Fatalf("Probe = %v, want [1] after re-seed", up)
	}
}

// TestRouterAllDownRecoversViaReadyProbe: when EVERY shard is excluded
// before the trained flag latches, the batch query path short-circuits in
// the readiness check — which must still kick the lazy probe, or a fully
// blipped fleet could never rejoin without operator action (regression
// test).
func TestRouterAllDownRecoversViaReadyProbe(t *testing.T) {
	fx := fixture(t)
	r, stubs := stubDeployment(t)
	ctx := context.Background()
	r.SetProbeInterval(time.Nanosecond)

	stubs[0].failing.Store(true)
	stubs[1].failing.Store(true)
	// First batch call: readiness pings fail, both shards excluded.
	if _, err := r.RecommendBatch(ctx, fx.Queries[:1], core.WithK(3)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	if down := r.Down(); len(down) != 2 {
		t.Fatalf("Down() = %v, want both", down)
	}

	// Fleet comes back healthy (no writes landed anywhere → no debt).
	stubs[0].failing.Store(false)
	stubs[1].failing.Store(false)
	stubs[0].pingOK.Store(true)
	stubs[1].pingOK.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		results, err := r.RecommendBatch(ctx, fx.Queries[:1], core.WithK(3))
		if err == nil && results[0].Err == nil {
			break
		}
		if err != nil && !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("unexpected error while waiting for recovery: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("all-down fleet never recovered through the readiness probe")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
