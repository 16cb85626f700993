// replicaset.go replicates one shard slot R ways behind the Shard seam.
// A ReplicaSet is itself a Shard (plus Pinger / SnapshotReceiver /
// SnapshotProvider), so the Router's scatter-gather, failover and debt
// accounting compose over it unchanged: the Router sees one logical slot,
// and the set multiplexes it over R identically-partitioned replicas.
//
// # Exactness
//
// The micro-batch is the deployment's atomic replication unit (the Router
// already broadcasts every write batch under a detached context), so the
// set replays the SAME batches to every replica: each replica of slot i
// holds bit-identical state — the replicated dictionaries plus slot i's
// leaf partition — and any replica answers any slot-i query with exactly
// the ranking a single engine would produce. Writes therefore broadcast
// to all replicas (keeping them converged), while each read is served by
// ONE replica — load-balanced toward the fastest via a latency EWMA — so
// adding replicas multiplies read throughput without perturbing results.
//
// # Failure accounting
//
// The set and the Router embed the same member-set primitive (members.go):
// exclusion, generation-guarded missed-write debt, the boot-epoch proof of
// re-seed, probing and re-seeding are one copy applied to replicas here
// and to shards there. The set's own Ping reports slot health to the
// Router: the slot epoch is derived from the set's reseed generation, so
// Router-level debt (a batch the WHOLE slot missed) is cleared only after
// some replica accepted a fresh snapshot — the same fail-closed rule the
// Router applies to plain shards.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/sigtree"
	"ssrec/internal/telemetry"
)

const (
	// ewmaAlpha weights the newest latency sample in a replica's EWMA.
	ewmaAlpha = 0.2
	// explorePeriod: every Nth read tries the non-preferred replica first,
	// keeping its EWMA fresh so a recovered replica can win back traffic.
	explorePeriod = 16
	// deltaTailCap bounds the in-memory ring of recent replicated write
	// batches a stale replica can catch up from without a snapshot.
	deltaTailCap = 256
)

// ReplicaState describes one replica (or one plain unreplicated shard)
// for /v2/stats and monitoring.
type ReplicaState struct {
	Slot    int
	Replica int
	// State is "healthy", "excluded" (unreachable or in missed-write
	// debt) or "reseeding" (a snapshot handoff is in flight).
	State string
	// MissedWrite reports outstanding missed-write debt: the replica must
	// prove a re-seed (boot-epoch change) before it serves again.
	MissedWrite bool
	// LatencyEWMAMs is the replica's read-latency EWMA in milliseconds
	// (0 until the first sample).
	LatencyEWMAMs float64
}

// ReplicaSet multiplexes one shard slot over R replicas.
type ReplicaSet struct {
	idx int
	// members holds the replicas and their exclusion, missed-write debt,
	// epoch baselines and probe schedule (members.go).
	members

	// ewma[j] holds math.Float64bits of replica j's read-latency EWMA in
	// milliseconds; 0 means no sample yet. Updates are load-compute-store
	// (a lost race drops one sample, which the EWMA tolerates).
	ewma []atomic.Uint64
	rr   atomic.Uint64 // read counter driving periodic exploration

	// seedGen counts slot re-seeds: accepted slot handoffs and supervisor
	// reseeds of a slot the Router holds in debt. The slot's boot epoch is
	// derived from it, and both run inside a Router-level reseed of the
	// slot, so the Router sees an epoch change exactly when the slot was
	// re-seeded and records it as its baseline at once. Re-seeding one
	// replica of a serving slot leaves it alone.
	seedGen atomic.Uint64

	// Delta catch-up bookkeeping: every non-empty write batch gets the
	// next slot write sequence and is retained in a bounded ring;
	// applied[j] is the highest sequence replica j has applied (0 =
	// unknown, reset after a snapshot reseed whose exact coverage the set
	// cannot know). A stale replica's countable debt is wseq - applied[j],
	// and when the ring still holds that whole tail the supervisor can
	// replay just the missed batches instead of shipping a snapshot.
	wseq    atomic.Uint64
	applied []atomic.Uint64
	tailMu  sync.Mutex
	tail    []ReplayBatch

	failovers atomic.Uint64 // reads retried on a sibling after a failure
}

// NewReplicaSet groups replicas (each already partitioned as slot idx of
// its deployment) into one logical slot.
func NewReplicaSet(idx int, replicas ...Shard) (*ReplicaSet, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("shard: replica set needs at least one replica")
	}
	for j, s := range replicas {
		if s.Index() != idx {
			return nil, fmt.Errorf("shard: slot %d replica %d reports shard index %d", idx, j, s.Index())
		}
	}
	rs := &ReplicaSet{
		idx:     idx,
		applied: make([]atomic.Uint64, len(replicas)),
		ewma:    make([]atomic.Uint64, len(replicas)),
	}
	rs.init(replicas)
	return rs, nil
}

// Index implements Shard.
func (rs *ReplicaSet) Index() int { return rs.idx }

// Replicas reports the set's width.
func (rs *ReplicaSet) Replicas() int { return len(rs.shards) }

// SetProbeInterval adjusts the set's internal re-probe base interval.
func (rs *ReplicaSet) SetProbeInterval(d time.Duration) { rs.setProbeInterval(d) }

// logWrite assigns the next slot write sequence to a batch, retains it in
// the delta ring and chooses the batch's target replicas — all under
// tailMu. Choosing the targets in the same critical section is what makes
// delta replay exact: a replay takes its batches from the ring under
// tailMu, so it can hold batch N only after N's targets were chosen, and
// it re-includes its (excluded) replica only after replaying. A replica a
// replay covering N re-includes was therefore down when N's targets were
// chosen, and N reaches it once — from the replay, never also from the
// broadcast. Chosen after the section, the targets could include a
// replica a replay had just re-included, which would apply N twice.
// Sequencing assumes the slot's write stream is ordered — the same
// assumption the replication exactness argument already rests on.
func (rs *ReplicaSet) logWrite(items []model.Item, obs []core.Observation) (uint64, []leg) {
	rs.tailMu.Lock()
	defer rs.tailMu.Unlock()
	seq := rs.wseq.Add(1)
	rs.tail = append(rs.tail, ReplayBatch{Seq: seq, Items: items, Obs: obs})
	if len(rs.tail) > deltaTailCap {
		rs.tail = rs.tail[len(rs.tail)-deltaTailCap:]
	}
	return seq, rs.targets()
}

// noteApplied records that replica j applied sequence seq (monotone).
func (rs *ReplicaSet) noteApplied(j int, seq uint64) {
	for {
		cur := rs.applied[j].Load()
		if cur >= seq || rs.applied[j].CompareAndSwap(cur, seq) {
			return
		}
	}
}

// resetApplied marks replica j's applied sequence unknown — after a
// snapshot reseed the set cannot know exactly which broadcasts the
// snapshot covered, and a delta replay from a wrong baseline would
// double- or under-apply batches. Tracking restarts at the replica's
// next applied broadcast.
func (rs *ReplicaSet) resetApplied(j int) { rs.applied[j].Store(0) }

// appliedSeq reports the highest write sequence replica j is known to
// have applied (0 = unknown).
func (rs *ReplicaSet) appliedSeq(j int) uint64 { return rs.applied[j].Load() }

// deltaTail returns the ring entries covering (after, through], or
// ok=false when the ring no longer holds that tail contiguously.
func (rs *ReplicaSet) deltaTail(after, through uint64) ([]ReplayBatch, bool) {
	rs.tailMu.Lock()
	defer rs.tailMu.Unlock()
	var out []ReplayBatch
	for _, b := range rs.tail {
		if b.Seq > after && b.Seq <= through {
			out = append(out, b)
		}
	}
	if uint64(len(out)) != through-after || len(out) == 0 || out[0].Seq != after+1 {
		return nil, false
	}
	return out, true
}

func (rs *ReplicaSet) unavailErr() error {
	return fmt.Errorf("%w: slot %d: no healthy replica", ErrShardUnavailable, rs.idx)
}

// health snapshots the per-replica states for monitoring.
func (rs *ReplicaSet) health() []ReplicaState {
	out := make([]ReplicaState, len(rs.shards))
	for j := range rs.shards {
		st := ReplicaState{Slot: rs.idx, Replica: j}
		st.State, st.MissedWrite = rs.state(j)
		if bits := rs.ewma[j].Load(); bits != 0 {
			st.LatencyEWMAMs = math.Float64frombits(bits)
		}
		out[j] = st
	}
	return out
}

// observeLatency folds one read-latency sample into replica j's EWMA.
func (rs *ReplicaSet) observeLatency(j int, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	old := rs.ewma[j].Load()
	next := ms
	if old != 0 {
		next = math.Float64frombits(old)*(1-ewmaAlpha) + ms*ewmaAlpha
	}
	if next <= 0 {
		next = math.SmallestNonzeroFloat64 // keep 0 meaning "no sample"
	}
	rs.ewma[j].Store(math.Float64bits(next))
}

// readOrder lists the healthy replicas fastest-EWMA-first (unsampled
// replicas sort first so they get measured); every explorePeriod-th call
// rotates the winner to the back so the runner-up's EWMA stays live.
func (rs *ReplicaSet) readOrder() []int {
	order := make([]int, 0, len(rs.shards))
	for j := range rs.shards {
		if !rs.isDown(j) {
			order = append(order, j)
		}
	}
	if len(order) < 2 {
		return order
	}
	sort.SliceStable(order, func(a, b int) bool {
		ea, eb := rs.ewma[order[a]].Load(), rs.ewma[order[b]].Load()
		if ea == 0 || eb == 0 {
			return eb != 0 // unsampled first
		}
		return math.Float64frombits(ea) < math.Float64frombits(eb)
	})
	if rs.rr.Add(1)%explorePeriod == 0 {
		order = append(order[1:], order[0])
	}
	return order
}

// Ping implements Pinger at SLOT level: the slot is serveable while any
// replica is healthy and debt-free. Down replicas are re-probed inline
// (this is the Router's explicit recovery path). The returned epoch is
// derived from the reseed generation, so the Router's fail-closed
// re-inclusion of a debtor slot requires a slot re-seed — not merely a
// replica reconnecting with whatever stale state it kept.
func (rs *ReplicaSet) Ping(ctx context.Context) (string, error) {
	healthy := 0
	anyUntrained := false
	for j := range rs.shards {
		ok, untrained := rs.probe(ctx, j)
		if ok {
			healthy++
		} else if untrained {
			anyUntrained = true
		}
	}
	if healthy == 0 {
		if anyUntrained {
			return "", core.ErrNotTrained
		}
		return "", rs.unavailErr()
	}
	return fmt.Sprintf("rs-%d", rs.seedGen.Load()), nil
}

// Preflight implements Preflighter at slot level: the healthy replicas
// are checked in parallel, and one that refuses its check refuses the
// slot's, so the Router refuses a write before any slot applies it. A
// replica that cannot be reached is excluded, as its failed write would
// exclude it, and the slot writes to the others.
func (rs *ReplicaSet) Preflight(ctx context.Context) error {
	errs := make([]error, len(rs.shards))
	var wg sync.WaitGroup
	for j, s := range rs.shards {
		if p, ok := s.(Preflighter); ok && !rs.isDown(j) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[j] = p.Preflight(ctx)
			}()
		}
	}
	wg.Wait()
	var refusal error
	for j, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ErrShardUnavailable):
			rs.exclude(j)
		case refusal == nil:
			refusal = fmt.Errorf("slot %d replica %d: %w", rs.idx, j, err)
		}
	}
	return refusal
}

// Stats implements Shard: the replicas are bit-identical, so the first
// healthy one speaks for the slot.
func (rs *ReplicaSet) Stats() Stats {
	for j := range rs.shards {
		if !rs.isDown(j) {
			s := rs.shards[j].Stats()
			s.Shard = rs.idx
			return s
		}
	}
	return Stats{Shard: rs.idx}
}

// RegisterItems implements Shard: the deterministic registration prologue
// broadcasts to every healthy replica (the producer layers must advance
// identically everywhere). The slot succeeds while ANY replica applied
// the batch; replicas that skipped or failed a state-advancing batch
// record missed-write debt under the Router's proof rules — a successful
// changed=false leg proves a no-op everywhere and accrues none.
func (rs *ReplicaSet) RegisterItems(ctx context.Context, items []model.Item) (bool, error) {
	bctx := detach(ctx)
	var seq uint64
	var legs []leg
	if len(items) > 0 {
		seq, legs = rs.logWrite(items, nil)
	} else {
		legs = rs.targets()
	}
	changed := make([]bool, len(rs.shards))
	anyOK, anyUnavail, refused := rs.broadcast(bctx, legs, func(j int) (err error) {
		changed[j], err = rs.shards[j].RegisterItems(bctx, items)
		return err
	})
	advanced := rs.settleRegister(seq, legs, changed, anyOK, anyUnavail, refused)
	switch {
	case anyOK:
		return advanced, nil
	case refused >= 0:
		return false, rs.refusal(refused, legs)
	}
	return false, rs.unavailErr()
}

// settleRegister accounts one registration write of the slot — a batch
// prologue or an ask's — once its legs ran, and reports whether it
// advanced the replicated dictionaries. seq is the write's ring sequence,
// 0 for an empty batch. Proven advance, or an unknowable outcome — no leg
// succeeded and some leg was unavailable (it may have applied), or no
// replica ran at all while the batch may still land on sibling slots —
// debts every replica that did not succeed.
func (rs *ReplicaSet) settleRegister(seq uint64, legs []leg, changed []bool, anyOK, anyUnavail bool, refused int) (advanced bool) {
	for j, l := range legs {
		if l.called && l.err == nil {
			advanced = advanced || changed[j]
			if seq != 0 {
				rs.noteApplied(j, seq)
			}
		}
	}
	rs.settle(legs, seq != 0 && ((anyOK && advanced) || (!anyOK && (anyUnavail || refused < 0))))
	return advanced
}

// ObserveBatch implements Shard: one micro-batch broadcast to every
// healthy replica. The replicas are bit-identical, so the first healthy
// report IS the slot's report (summing Flushed across replicas would
// double-count the slot's owned refreshes). The slot stays available
// while any replica applied the batch; the others record debt under the
// mutated-proof rules.
func (rs *ReplicaSet) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	if len(batch) == 0 {
		return core.BatchReport{}, nil
	}
	rs.maybeProbe()
	bctx := detach(ctx)
	seq, legs := rs.logWrite(nil, batch)
	reps := make([]core.BatchReport, len(rs.shards))
	anyOK, anyUnavail, refused := rs.broadcast(bctx, legs, func(j int) (err error) {
		reps[j], err = rs.shards[j].ObserveBatch(bctx, batch)
		return err
	})
	var rep core.BatchReport
	for j := len(legs) - 1; j >= 0; j-- {
		if legs[j].called && legs[j].err == nil {
			rs.noteApplied(j, seq)
			rep = reps[j]
		}
	}
	// RegisterItems' rule, with Applied > 0 as the proof of advance.
	rs.settle(legs, (anyOK && rep.Applied > 0) || (!anyOK && (anyUnavail || refused < 0)))
	switch {
	case anyOK:
		return rep, nil
	case refused >= 0:
		return rep, rs.refusal(refused, legs)
	}
	return rep, rs.unavailErr()
}

func (rs *ReplicaSet) refusal(j int, legs []leg) error {
	return fmt.Errorf("slot %d replica %d: %w", rs.idx, j, legs[j].err)
}

// Recommend implements Shard. The ask's registration is a slot write
// like RegisterItems — sequenced into the delta ring and settled under
// the same rules — but it costs one round trip: the read replica
// registers through its own ask while every other target gets
// RegisterItems concurrently. A registration no replica accepted fails
// the ask before any read: unavailable when its outcome is unknown (some
// replica was unavailable, or none ran), otherwise with the refusal
// wrapped in ErrNotRegistered, so the Router fails the ask and debits the
// slot when siblings prove the item new. When only the read replica
// failed, a sibling that registered answers (see readFrom).
func (rs *ReplicaSet) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, bool, error) {
	rs.maybeProbe()
	items := []model.Item{v}
	seq, legs := rs.logWrite(items, nil)
	reader := -1
	for _, j := range rs.readOrder() {
		if legs[j].called {
			reader = j
			break
		}
	}
	bctx := detach(ctx)
	changed := make([]bool, len(rs.shards))
	var res core.Result
	var rerr error
	anyOK, anyUnavail, refused := rs.broadcast(bctx, legs, func(j int) (err error) {
		if j != reader {
			changed[j], err = rs.shards[j].RegisterItems(bctx, items)
			return err
		}
		res, changed[j], rerr = rs.readOne(ctx, j, v, o, b)
		return registration(rerr)
	})
	advanced := rs.settleRegister(seq, legs, changed, anyOK, anyUnavail, refused)
	switch {
	case anyOK && reader >= 0 && legs[reader].err == nil:
		return res, advanced, rerr
	case anyOK:
		var order []int
		for _, j := range rs.readOrder() {
			if j != reader && legs[j].called && legs[j].err == nil {
				order = append(order, j)
			}
		}
		res, rerr = rs.readFrom(ctx, order, true, v, o, b)
		return res, advanced, rerr
	case !anyUnavail && refused >= 0:
		return core.Result{ItemID: v.ID}, false, fmt.Errorf("%w: %w", ErrNotRegistered, rs.refusal(refused, legs))
	}
	return core.Result{ItemID: v.ID}, false, rs.unavailErr()
}

// read answers an item the slot has already registered — RecommendBatch's
// asks, whose prologue wrote their items — without writing it again: ONE
// healthy replica answers the query, so R replicas serve R× the read
// traffic, and the replica's ask re-registers warm, mutating nothing.
func (rs *ReplicaSet) read(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, error) {
	rs.maybeProbe()
	return rs.readFrom(ctx, rs.readOrder(), false, v, o, b)
}

// readFrom asks the replicas of order in turn — fastest-EWMA first —
// failing over to the next on unavailability; failedOver marks a read
// that already failed over once. Any replica's answer is exact (see the
// package comment's exactness argument), and a failed attempt can only
// have RAISED the shared bound with exact scores, so failover never
// perturbs results. A read mutates nothing, so a replica that failed it
// is excluded without debt and rejoins on a plain successful probe.
func (rs *ReplicaSet) readFrom(ctx context.Context, order []int, failedOver bool, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, error) {
	for _, j := range order {
		res, _, err := rs.readOne(ctx, j, v, o, b)
		if err != nil && errors.Is(err, ErrShardUnavailable) {
			rs.exclude(j)
			failedOver = true
			continue
		}
		if failedOver {
			rs.failovers.Add(1)
		}
		return res, err
	}
	return core.Result{ItemID: v.ID}, rs.unavailErr()
}

// readOne asks replica j under a replica.read span and folds the latency
// of an answered ask into its EWMA.
func (rs *ReplicaSet) readOne(ctx context.Context, j int, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, bool, error) {
	start := time.Now()
	sctx, span := telemetry.StartSpan(ctx, "replica.read")
	defer span.End()
	span.SetAttr("slot", strconv.Itoa(rs.idx))
	span.SetAttr("replica", strconv.Itoa(j))
	res, changed, err := rs.shards[j].Recommend(sctx, v, o, b)
	if err != nil && errors.Is(err, ErrShardUnavailable) {
		span.SetAttr("failover", "true")
		return res, changed, err
	}
	rs.observeLatency(j, time.Since(start))
	return res, changed, err
}

// Handoff implements SnapshotReceiver: the snapshot is pushed to every
// replica that can receive one. The slot handoff succeeds when ANY
// replica accepted it (the slot is then serveable and consistent); a
// replica whose push failed stays excluded and is retried by the
// supervisor. An accepted handoff bumps the reseed generation, changing
// the slot epoch the Router uses as its re-seed proof. A set with no
// receiving replicas (in-process) reports success without bumping — it
// boots out-of-band, mirroring the Router's skip of non-receiver shards.
func (rs *ReplicaSet) Handoff(ctx context.Context, snapshot []byte) error {
	receivers, accepted := 0, 0
	var firstErr error
	for j := range rs.shards {
		sr, ok := rs.shards[j].(SnapshotReceiver)
		if !ok {
			continue
		}
		receivers++
		// Debt recorded while the snapshot is in flight survives the
		// reseed, keeping the replica excluded rather than one batch
		// behind; the snapshot itself was applied, so it still counts.
		if err := rs.reseed(ctx, j, rs.claim(j), rs.handoff(ctx, j, sr, snapshot)); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %d: %w", j, err)
			}
			continue
		}
		accepted++
	}
	if receivers == 0 {
		return nil
	}
	if accepted == 0 {
		return firstErr
	}
	rs.seedGen.Add(1)
	return nil
}

// handoff is the push of a snapshot reseed of replica j: after the
// snapshot the set cannot know which broadcasts it covered, so the
// replica's applied sequence restarts unknown.
func (rs *ReplicaSet) handoff(ctx context.Context, j int, sr SnapshotReceiver, snapshot []byte) func() error {
	return func() error {
		if err := sr.Handoff(ctx, snapshot); err != nil {
			return err
		}
		rs.resetApplied(j)
		return nil
	}
}

// Snapshot implements SnapshotProvider: exported from the first healthy,
// debt-free replica that can provide one — the supervisor's reseed
// source.
func (rs *ReplicaSet) Snapshot(ctx context.Context) ([]byte, error) {
	data, err := rs.snapshotSource(ctx)
	if err != nil {
		return nil, fmt.Errorf("slot %d: %w", rs.idx, err)
	}
	return data, nil
}

// ReplicaHealth reports the per-replica states of every slot — one entry
// per replica for ReplicaSet slots, one pseudo-replica for plain shards —
// in slot-major order, for /v2/stats.
func (r *Router) ReplicaHealth() []ReplicaState {
	f := r.fl()
	var out []ReplicaState
	for i, s := range f.shards {
		if rs, ok := s.(*ReplicaSet); ok {
			out = append(out, rs.health()...)
			continue
		}
		// A plain shard reports only healthy or excluded.
		st := ReplicaState{Slot: i, State: "healthy", MissedWrite: f.owes(i)}
		if f.isDown(i) || st.MissedWrite {
			st.State = "excluded"
		}
		out = append(out, st)
	}
	return out
}

var (
	_ Shard            = (*ReplicaSet)(nil)
	_ Pinger           = (*ReplicaSet)(nil)
	_ SnapshotReceiver = (*ReplicaSet)(nil)
	_ SnapshotProvider = (*ReplicaSet)(nil)
	_ SnapshotProvider = (*Local)(nil)
)
