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
// The set mirrors the Router's per-shard machinery one level down: a
// replica that fails with ErrShardUnavailable is excluded from the set,
// write batches it missed record missed-write debt (generation-guarded),
// and re-inclusion of a debtor requires a boot-epoch change proving a
// re-seed. The set's own Ping reports slot health to the Router: the slot
// epoch is derived from the set's reseed generation, so Router-level debt
// (a batch the WHOLE slot missed) is cleared only after some replica
// accepted a fresh snapshot — the same fail-closed rule the Router
// applies to plain shards.
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
	idx      int
	replicas []Shard

	down        []atomic.Bool
	missedWrite []atomic.Bool
	debtGen     []atomic.Uint64
	reseeding   []atomic.Bool
	// debtMu orders recordDebt against includeIfUnchanged: without it a
	// re-inclusion could interleave with a debt record and erase it.
	debtMu sync.Mutex

	epochMu   sync.Mutex
	lastEpoch []string

	// ewma[j] holds math.Float64bits of replica j's read-latency EWMA in
	// milliseconds; 0 means no sample yet. Updates are load-compute-store
	// (a lost race drops one sample, which the EWMA tolerates).
	ewma []atomic.Uint64
	rr   atomic.Uint64 // read counter driving periodic exploration

	// seedGen counts accepted snapshot handoffs; the slot's boot epoch is
	// derived from it, so the Router's fail-closed re-inclusion rule sees
	// an epoch change exactly when some replica was re-seeded.
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

	probes *probeSchedule

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
	return &ReplicaSet{
		idx:         idx,
		replicas:    replicas,
		down:        make([]atomic.Bool, len(replicas)),
		missedWrite: make([]atomic.Bool, len(replicas)),
		debtGen:     make([]atomic.Uint64, len(replicas)),
		reseeding:   make([]atomic.Bool, len(replicas)),
		applied:     make([]atomic.Uint64, len(replicas)),
		lastEpoch:   make([]string, len(replicas)),
		ewma:        make([]atomic.Uint64, len(replicas)),
		probes:      newProbeSchedule(len(replicas), DefaultProbeInterval),
	}, nil
}

// Index implements Shard.
func (rs *ReplicaSet) Index() int { return rs.idx }

// Replicas reports the set's width.
func (rs *ReplicaSet) Replicas() int { return len(rs.replicas) }

// setReplica swaps replica j — the in-process Train bootstrap path, which
// runs before the deployment serves; it is not safe under traffic.
func (rs *ReplicaSet) setReplica(j int, s Shard) { rs.replicas[j] = s }

// SetProbeInterval adjusts the set's internal re-probe base interval.
func (rs *ReplicaSet) SetProbeInterval(d time.Duration) {
	if d <= 0 {
		d = DefaultProbeInterval
	}
	rs.probes.setBase(d)
}

func (rs *ReplicaSet) recordDebt(j int) {
	rs.debtMu.Lock()
	defer rs.debtMu.Unlock()
	rs.missedWrite[j].Store(true)
	rs.debtGen[j].Add(1)
	rs.down[j].Store(true)
}

// includeIfUnchanged clears replica j's debt and re-includes it for reads
// and writes, unless debt was recorded since the caller captured gen: that
// debt postdates whatever the caller verified (a probe, a snapshot, a
// replayed tail), so the replica stays excluded rather than serving one
// batch behind. Clearing and re-including in one step leaves no window in
// which a read can reach a replica that still owes a batch. It reports
// whether j rejoined.
func (rs *ReplicaSet) includeIfUnchanged(j int, gen uint64) bool {
	rs.debtMu.Lock()
	defer rs.debtMu.Unlock()
	if rs.debtGen[j].Load() != gen {
		return false
	}
	rs.missedWrite[j].Store(false)
	rs.down[j].Store(false)
	return true
}

// logWrite assigns the next slot write sequence to a batch and retains
// it in the delta ring. Sequencing assumes the slot's write stream is
// ordered — the same assumption the replication exactness argument
// already rests on.
func (rs *ReplicaSet) logWrite(items []model.Item, obs []core.Observation) uint64 {
	rs.tailMu.Lock()
	defer rs.tailMu.Unlock()
	seq := rs.wseq.Add(1)
	rs.tail = append(rs.tail, ReplayBatch{Seq: seq, Items: items, Obs: obs})
	if len(rs.tail) > deltaTailCap {
		rs.tail = rs.tail[len(rs.tail)-deltaTailCap:]
	}
	return seq
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

func (rs *ReplicaSet) recordEpoch(j int, epoch string) {
	if epoch == "" {
		return
	}
	rs.epochMu.Lock()
	rs.lastEpoch[j] = epoch
	rs.epochMu.Unlock()
}

func (rs *ReplicaSet) knownEpoch(j int) string {
	rs.epochMu.Lock()
	defer rs.epochMu.Unlock()
	return rs.lastEpoch[j]
}

// refreshEpoch re-reads replica j's boot epoch after a reseed or replay
// minted a fresh one. A failed ping forgets the baseline rather than
// keeping the pre-reseed epoch: a stale baseline would make the new epoch
// look like proof of a LATER re-seed, and the next probe would re-include
// the replica over debt it still owes.
func (rs *ReplicaSet) refreshEpoch(ctx context.Context, j int, p Pinger) {
	epoch, err := p.Ping(ctx)
	if err != nil {
		epoch = ""
	}
	rs.epochMu.Lock()
	rs.lastEpoch[j] = epoch
	rs.epochMu.Unlock()
}

// fence claims replica j for a supervisor reseed: probes refuse it while
// reseeding is set, and the generation bump defeats a probe already in
// flight. Without it a replica re-included between the job's capture and
// its handoff would take writes the snapshot then overwrites. It returns
// the generation that guards the reseed's own re-inclusion.
func (rs *ReplicaSet) fence(j int) uint64 {
	rs.reseeding[j].Store(true)
	rs.debtMu.Lock()
	defer rs.debtMu.Unlock()
	rs.down[j].Store(true)
	return rs.debtGen[j].Add(1)
}

func (rs *ReplicaSet) unavailErr() error {
	return fmt.Errorf("%w: slot %d: no healthy replica", ErrShardUnavailable, rs.idx)
}

// health snapshots the per-replica states for monitoring.
func (rs *ReplicaSet) health() []ReplicaState {
	out := make([]ReplicaState, len(rs.replicas))
	for j := range rs.replicas {
		st := ReplicaState{
			Slot:        rs.idx,
			Replica:     j,
			State:       "healthy",
			MissedWrite: rs.missedWrite[j].Load(),
		}
		if bits := rs.ewma[j].Load(); bits != 0 {
			st.LatencyEWMAMs = math.Float64frombits(bits)
		}
		switch {
		case rs.reseeding[j].Load():
			st.State = "reseeding"
		case rs.down[j].Load() || st.MissedWrite:
			st.State = "excluded"
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
	order := make([]int, 0, len(rs.replicas))
	for j := range rs.replicas {
		if !rs.down[j].Load() {
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

// maybeProbe kicks an asynchronous re-probe of the excluded replicas
// whose backoff is due — the set-internal mirror of Router.maybeProbe.
func (rs *ReplicaSet) maybeProbe() {
	var down []int
	for j := range rs.replicas {
		if rs.down[j].Load() {
			down = append(down, j)
		}
	}
	if len(down) == 0 {
		return
	}
	due := rs.probes.claimDue(down)
	if len(due) == 0 {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		defer cancel()
		for _, j := range due {
			if !rs.down[j].Load() {
				continue
			}
			if ok, _ := rs.probeReplica(ctx, j); ok {
				rs.probes.success(j)
			} else {
				rs.probes.failure(j)
			}
		}
	}()
}

// probeReplica re-checks replica j and re-includes it when safe, under
// the same fail-closed rules Router.probeOne applies to shards: a debtor
// rejoins only on a changed boot epoch (proof of re-seed). untrained
// reports a replica that is reachable but awaiting training — the signal
// Ping uses to distinguish ErrNotTrained from unavailability.
func (rs *ReplicaSet) probeReplica(ctx context.Context, j int) (ok, untrained bool) {
	gen := rs.debtGen[j].Load()
	if rs.reseeding[j].Load() {
		// The reseed owns re-inclusion; its fresh epoch is no proof to a
		// probe until the reseed has recorded it.
		return false, false
	}
	if p, isP := rs.replicas[j].(Pinger); isP {
		epoch, err := p.Ping(ctx)
		if err != nil {
			rs.down[j].Store(true)
			return false, false
		}
		if rs.missedWrite[j].Load() {
			known := rs.knownEpoch(j)
			if epoch == "" || known == "" || epoch == known {
				rs.recordEpoch(j, epoch)
				return false, false
			}
		}
		rs.recordEpoch(j, epoch)
	} else if !rs.replicas[j].Stats().Trained {
		return false, true
	}
	return rs.includeIfUnchanged(j, gen), false
}

// Ping implements Pinger at SLOT level: the slot is serveable while any
// replica is healthy and debt-free. Down replicas are re-probed inline
// (this is the Router's explicit recovery path). The returned epoch is
// derived from the reseed generation, so the Router's fail-closed
// re-inclusion of a debtor slot requires a replica re-seed — not merely a
// replica reconnecting with whatever stale state it kept.
func (rs *ReplicaSet) Ping(ctx context.Context) (string, error) {
	healthy := 0
	anyUntrained := false
	for j := range rs.replicas {
		ok, untrained := rs.probeReplica(ctx, j)
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

// Stats implements Shard: the replicas are bit-identical, so the first
// healthy one speaks for the slot.
func (rs *ReplicaSet) Stats() Stats {
	for j := range rs.replicas {
		if !rs.down[j].Load() {
			s := rs.replicas[j].Stats()
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
	if len(items) > 0 {
		seq = rs.logWrite(items, nil)
	}
	n := len(rs.replicas)
	errs := make([]error, n)
	changed := make([]bool, n)
	ran := make([]bool, n)
	var wg sync.WaitGroup
	for j := range rs.replicas {
		if rs.down[j].Load() {
			continue
		}
		ran[j] = true
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			changed[j], errs[j] = rs.replicas[j].RegisterItems(bctx, items)
		}(j)
	}
	wg.Wait()
	anySuccess, advanced, anyUnavail := false, false, false
	var fatal error
	for j := range rs.replicas {
		if !ran[j] {
			continue
		}
		switch {
		case errs[j] == nil:
			anySuccess = true
			advanced = advanced || changed[j]
			if seq != 0 {
				rs.noteApplied(j, seq)
			}
		case errors.Is(errs[j], ErrShardUnavailable):
			anyUnavail = true
			rs.down[j].Store(true)
		default:
			// A clean refusal while a sibling may have applied the batch:
			// this replica provably diverged — exclude it with debt below.
			if fatal == nil {
				fatal = fmt.Errorf("slot %d replica %d: %w", rs.idx, j, errs[j])
			}
		}
	}
	ranAny := anySuccess || anyUnavail || fatal != nil
	// Debt mirrors Router.registerBroadcast: proven advance, or unknowable
	// outcome (only unavailable legs ran, or no replica ran at all — the
	// batch may still land on sibling slots), debts every replica that did
	// not succeed.
	mutated := (anySuccess && advanced) || (!anySuccess && anyUnavail) || !ranAny
	if len(items) > 0 && mutated {
		for j := range rs.replicas {
			if !ran[j] || errs[j] != nil {
				rs.recordDebt(j)
			}
		}
	}
	if anySuccess {
		return advanced, nil
	}
	if fatal != nil {
		return false, fatal
	}
	return false, rs.unavailErr()
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
	seq := rs.logWrite(nil, batch)
	n := len(rs.replicas)
	reps := make([]core.BatchReport, n)
	errs := make([]error, n)
	ran := make([]bool, n)
	var wg sync.WaitGroup
	for j := range rs.replicas {
		if rs.down[j].Load() {
			continue
		}
		ran[j] = true
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			reps[j], errs[j] = rs.replicas[j].ObserveBatch(bctx, batch)
		}(j)
	}
	wg.Wait()
	var rep core.BatchReport
	base := false
	anyUnavail := false
	var fatal error
	for j := range rs.replicas {
		if !ran[j] {
			continue
		}
		switch {
		case errs[j] == nil:
			rs.noteApplied(j, seq)
			if !base {
				rep = reps[j]
				base = true
			}
		case errors.Is(errs[j], ErrShardUnavailable):
			anyUnavail = true
			rs.down[j].Store(true)
		default:
			if fatal == nil {
				fatal = fmt.Errorf("slot %d replica %d: %w", rs.idx, j, errs[j])
			}
		}
	}
	ranAny := base || anyUnavail || fatal != nil
	mutated := (base && rep.Applied > 0) || (!base && anyUnavail) || !ranAny
	if mutated {
		for j := range rs.replicas {
			if !ran[j] || errs[j] != nil {
				rs.recordDebt(j)
			}
		}
	}
	if base {
		return rep, nil
	}
	if fatal != nil {
		return rep, fatal
	}
	return rep, rs.unavailErr()
}

// Recommend implements Shard: ONE healthy replica answers the query —
// fastest-EWMA first, failing over to siblings on unavailability — so R
// replicas serve R× the read traffic. Any replica's answer is exact (see
// the package comment's exactness argument), and a failed attempt can
// only have RAISED the shared bound with exact scores, so failover never
// perturbs results. Reads do not mutate, so a failed replica is excluded
// without debt and rejoins on a plain successful probe.
func (rs *ReplicaSet) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, error) {
	rs.maybeProbe()
	order := rs.readOrder()
	tried := false
	for _, j := range order {
		start := time.Now()
		sctx, span := telemetry.StartSpan(ctx, "replica.read")
		span.SetAttr("slot", strconv.Itoa(rs.idx))
		span.SetAttr("replica", strconv.Itoa(j))
		res, err := rs.replicas[j].Recommend(sctx, v, o, b)
		if err != nil && errors.Is(err, ErrShardUnavailable) {
			span.SetAttr("failover", "true")
			span.End()
			rs.down[j].Store(true)
			tried = true
			continue
		}
		span.End()
		if tried {
			rs.failovers.Add(1)
		}
		rs.observeLatency(j, time.Since(start))
		return res, err
	}
	return core.Result{ItemID: v.ID}, rs.unavailErr()
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
	for j := range rs.replicas {
		sr, ok := rs.replicas[j].(SnapshotReceiver)
		if !ok {
			continue
		}
		receivers++
		if err := rs.reseedReplica(ctx, j, sr, snapshot); err != nil {
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

// reseedReplica pushes one snapshot to replica j under the generation
// guard: debt recorded while the snapshot was in flight survives the
// clear, keeping the replica excluded rather than one batch behind.
func (rs *ReplicaSet) reseedReplica(ctx context.Context, j int, sr SnapshotReceiver, snapshot []byte) error {
	gen := rs.debtGen[j].Load()
	rs.reseeding[j].Store(true)
	defer rs.reseeding[j].Store(false)
	if err := sr.Handoff(ctx, snapshot); err != nil {
		rs.down[j].Store(true)
		return err
	}
	rs.resetApplied(j)
	if p, ok := rs.replicas[j].(Pinger); ok {
		pctx, cancel := context.WithTimeout(detach(ctx), readyProbeTimeout)
		rs.refreshEpoch(pctx, j, p)
		cancel()
	}
	// Debt that postdates the snapshot keeps the replica excluded; the
	// snapshot itself was applied, so the handoff still counts.
	rs.includeIfUnchanged(j, gen)
	return nil
}

// Snapshot implements SnapshotProvider: exported from the first healthy,
// debt-free replica that can provide one — the supervisor's reseed
// source.
func (rs *ReplicaSet) Snapshot(ctx context.Context) ([]byte, error) {
	var firstErr error
	for j := range rs.replicas {
		if rs.down[j].Load() || rs.missedWrite[j].Load() {
			continue
		}
		sp, ok := rs.replicas[j].(SnapshotProvider)
		if !ok {
			continue
		}
		data, err := sp.Snapshot(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return data, nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, fmt.Errorf("%w: slot %d: no healthy snapshot source", ErrShardUnavailable, rs.idx)
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
		st := ReplicaState{Slot: i, State: "healthy", MissedWrite: f.missedWrite[i].Load()}
		if f.down[i].Load() || st.MissedWrite {
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
