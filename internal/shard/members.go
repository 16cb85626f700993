// members.go is the one member-set primitive under both levels of a
// deployment: the Router's fleet (members are shards) and a ReplicaSet
// (members are replicas of one slot). It owns the per-member health state
// and is the only copy of the fail-closed rule that keeps every serving
// member exact:
//
//   - A member that fails with ErrShardUnavailable is EXCLUDED (down).
//   - A member that skipped or failed a write batch which mutated its
//     siblings owes MISSED-WRITE DEBT; debt always re-asserts down.
//   - A debtor rejoins only on PROOF OF RE-SEED: its boot epoch changed
//     from a recorded baseline. No epoch support, no baseline, or an
//     unchanged epoch all fail closed. (A member without a probe surface
//     is in-process: it cannot fail on its own and rejoins once trained.)
//   - Every clear of debt is GENERATION-GUARDED and happens together with
//     re-inclusion under debtMu: debt recorded after the caller captured
//     the generation postdates whatever the caller verified (a probe, a
//     snapshot, a replayed tail) and keeps the member out.
//   - A member being re-seeded is RESEEDING; probes refuse it, because its
//     fresh epoch is no proof until the re-seed itself has recorded it.
//   - A SNAPSHOT SOURCE is a member that is up and owes nothing.
//
// What differs by level stays with the level: how write reports merge,
// when a batch counts as mutated, the Router's bound-sharing scatter, and
// the set's read order, delta ring and slot epoch.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// members is one level's member set. Its slice shapes never change once
// serving; the atomic flags inside them are the mutable health state.
type members struct {
	shards []Shard

	down        []atomic.Bool
	missedWrite []atomic.Bool
	// debtGen[i] counts debt recordings and fences of member i; a clearer
	// captures it before deciding and clears only if it is unchanged.
	debtGen   []atomic.Uint64
	reseeding []atomic.Bool
	// debtMu orders recordDebt against includeIfUnchanged and fence, so a
	// re-inclusion can never interleave with a debt record and erase it.
	debtMu sync.Mutex

	// epochMu guards lastEpoch, the boot-epoch baseline per member ("" =
	// none known): the reference a debtor's epoch must differ from.
	epochMu   sync.Mutex
	lastEpoch []string

	// probes paces the lazy re-probe of excluded members (backoff.go).
	probes *probeSchedule
}

func (m *members) init(shards []Shard) {
	n := len(shards)
	m.shards = shards
	m.down = make([]atomic.Bool, n)
	m.missedWrite = make([]atomic.Bool, n)
	m.debtGen = make([]atomic.Uint64, n)
	m.reseeding = make([]atomic.Bool, n)
	m.lastEpoch = make([]string, n)
	m.probes = newProbeSchedule(n, DefaultProbeInterval)
}

// isDown reports whether member i is excluded.
func (m *members) isDown(i int) bool { return m.down[i].Load() }

// owes reports whether member i carries missed-write debt.
func (m *members) owes(i int) bool { return m.missedWrite[i].Load() }

// exclude marks member i down after an unavailable failure. Reads mutate
// nothing, so exclusion alone records no debt.
func (m *members) exclude(i int) { m.down[i].Store(true) }

// downList lists the excluded members, ascending (nil when none).
func (m *members) downList() []int {
	var out []int
	for i := range m.down {
		if m.down[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// state names member i's health for monitoring, with its debt flag.
func (m *members) state(i int) (string, bool) {
	missed := m.missedWrite[i].Load()
	switch {
	case m.reseeding[i].Load():
		return "reseeding", missed
	case m.down[i].Load() || missed:
		return "excluded", missed
	}
	return "healthy", missed
}

// setProbeInterval sets the lazy re-probe base interval (d <= 0 restores
// the default), rewinding every member's backoff.
func (m *members) setProbeInterval(d time.Duration) {
	if d <= 0 {
		d = DefaultProbeInterval
	}
	m.probes.setBase(d)
}

// probeInterval reports the lazy re-probe base interval.
func (m *members) probeInterval() time.Duration { return m.probes.baseInterval() }

// recordDebt marks member i as having missed a write: it must prove a
// re-seed before rejoining. Down is re-asserted with the debt so a
// concurrent re-inclusion cannot leave the member serving one batch
// behind.
func (m *members) recordDebt(i int) {
	m.debtMu.Lock()
	defer m.debtMu.Unlock()
	m.missedWrite[i].Store(true)
	m.debtGen[i].Add(1)
	m.down[i].Store(true)
}

// includeIfUnchanged clears member i's debt and re-includes it in one
// step, unless debt was recorded (or a fence raised) since the caller
// captured gen. It reports whether i rejoined.
func (m *members) includeIfUnchanged(i int, gen uint64) bool {
	m.debtMu.Lock()
	defer m.debtMu.Unlock()
	if m.debtGen[i].Load() != gen {
		return false
	}
	m.missedWrite[i].Store(false)
	m.down[i].Store(false)
	return true
}

// fence claims member i for a re-seed that is decided now but pushed
// later: it is excluded and marked reseeding (probes refuse it), and the
// generation bump defeats a probe already in flight. Without it a member
// re-included between the decision and the push would take writes the
// snapshot then overwrites. It returns the generation that guards the
// re-seed's own re-inclusion; unfence releases a claim that never pushed.
func (m *members) fence(i int) uint64 {
	m.reseeding[i].Store(true)
	m.debtMu.Lock()
	defer m.debtMu.Unlock()
	m.down[i].Store(true)
	return m.debtGen[i].Add(1)
}

func (m *members) unfence(i int) { m.reseeding[i].Store(false) }

// claim captures member i's debt generation for a re-seed pushed right
// away (no fence: a member that is serving keeps serving until the push).
func (m *members) claim(i int) uint64 { return m.debtGen[i].Load() }

// baseline reports member i's recorded boot-epoch baseline.
func (m *members) baseline(i int) string {
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	return m.lastEpoch[i]
}

func (m *members) setEpoch(i int, epoch string) {
	m.epochMu.Lock()
	m.lastEpoch[i] = epoch
	m.epochMu.Unlock()
}

// refreshEpoch re-reads member i's boot epoch after a re-seed minted a
// fresh one. A failed ping forgets the baseline rather than keeping the
// pre-re-seed epoch: a stale baseline would make the new epoch look like
// proof of a LATER re-seed, and the next probe would re-include the
// member over debt it still owes.
func (m *members) refreshEpoch(ctx context.Context, i int) {
	p, ok := m.shards[i].(Pinger)
	if !ok {
		return
	}
	pctx, cancel := context.WithTimeout(detach(ctx), readyProbeTimeout)
	defer cancel()
	epoch, err := p.Ping(pctx)
	if err != nil {
		epoch = ""
	}
	m.setEpoch(i, epoch)
}

// probe re-checks member i and re-includes it when safe. A Pinger must
// answer, and a debtor must show a boot epoch that changed from the
// recorded baseline; the observed epoch becomes the baseline either way,
// so a re-seed done out of band is provable on the next probe. A member
// without a probe surface (in-process) rejoins once trained. untrained
// reports that case failing — reachable, awaiting training — which a
// ReplicaSet's Ping tells apart from unavailability. The outcome also
// paces the member's backoff.
func (m *members) probe(ctx context.Context, i int) (ok, untrained bool) {
	defer func() {
		if ok {
			m.probes.success(i)
		} else {
			m.probes.failure(i)
		}
	}()
	gen := m.debtGen[i].Load()
	if m.reseeding[i].Load() {
		return false, false
	}
	if p, isP := m.shards[i].(Pinger); isP {
		epoch, err := p.Ping(ctx)
		if err != nil {
			m.exclude(i)
			return false, false
		}
		known := m.baseline(i)
		if epoch != "" {
			m.setEpoch(i, epoch)
		}
		if m.missedWrite[i].Load() && (epoch == "" || known == "" || epoch == known) {
			return false, false
		}
	} else if !m.shards[i].Stats().Trained {
		return false, true
	}
	return m.includeIfUnchanged(i, gen), false
}

// probeDown synchronously probes the excluded members among idx and
// returns the ones that rejoined.
func (m *members) probeDown(ctx context.Context, idx []int) []int {
	var up []int
	for _, i := range idx {
		if !m.down[i].Load() {
			continue
		}
		if ok, _ := m.probe(ctx, i); ok {
			up = append(up, i)
		}
	}
	return up
}

// maybeProbe kicks an asynchronous probe of the excluded members whose
// backoff is due, so a recovered member rejoins without an operator call
// while a dead one costs no per-call latency and is probed less and less
// often (ProbeBackoffCap-bounded).
func (m *members) maybeProbe() {
	down := m.downList()
	if len(down) == 0 {
		return
	}
	due := m.probes.claimDue(down)
	if len(due) == 0 {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		defer cancel()
		m.probeDown(ctx, due)
	}()
}

// reseed re-seeds member i with push (a snapshot handoff or a delta
// replay), then confirms the fresh boot epoch and re-includes the member
// unless debt postdates gen (from fence or claim). A failed push leaves
// the member excluded; the push itself still counts when later debt
// keeps the member out, so reseed reports only the push error.
func (m *members) reseed(ctx context.Context, i int, gen uint64, push func() error) error {
	m.reseeding[i].Store(true)
	defer m.reseeding[i].Store(false)
	if err := push(); err != nil {
		m.exclude(i)
		return err
	}
	m.refreshEpoch(ctx, i)
	m.includeIfUnchanged(i, gen)
	return nil
}

// leg is one member's share of a write fan-out.
type leg struct {
	called bool // the member was up when the targets were chosen
	err    error
}

// unavailable reports whether the leg was skipped or failed in transport.
func (l leg) unavailable() bool {
	return !l.called || (l.err != nil && errors.Is(l.err, ErrShardUnavailable))
}

// targets chooses a write's legs: every member up right now.
func (m *members) targets() []leg {
	legs := make([]leg, len(m.shards))
	for i := range legs {
		legs[i].called = !m.down[i].Load()
	}
	return legs
}

// broadcast runs call(i) on every targeted member in parallel and sorts
// the legs: ok, unavailable (the member is excluded on the spot) or a
// clean refusal (a non-transport error proving the member did NOT apply
// the batch). refused is the first refusing member, -1 when none.
//
// Every targeted Preflighter is checked under ctx, in parallel, before
// any member is called. A member whose check finds it unavailable is not
// called and its leg fails as the call would have. A member whose check
// refuses vetoes the fan-out: no member is called, the legs that passed
// their checks are marked skipped, and anyOK and anyUnavail are false,
// since nothing anywhere can have applied the batch.
func (m *members) broadcast(ctx context.Context, legs []leg, call func(i int) error) (anyOK, anyUnavail bool, refused int) {
	var wg sync.WaitGroup
	for i := range legs {
		if p, ok := m.shards[i].(Preflighter); ok && legs[i].called {
			wg.Add(1)
			go func() {
				defer wg.Done()
				legs[i].err = p.Preflight(ctx)
			}()
		}
	}
	wg.Wait()
	vetoed := false
	for _, l := range legs {
		vetoed = vetoed || (l.err != nil && !errors.Is(l.err, ErrShardUnavailable))
	}
	for i := range legs {
		switch {
		case !legs[i].called || legs[i].err != nil:
			continue
		case vetoed:
			legs[i].called = false
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			legs[i].err = call(i)
		}(i)
	}
	wg.Wait()
	refused = -1
	for i, l := range legs {
		switch {
		case !l.called:
		case l.err == nil:
			anyOK = true
		case errors.Is(l.err, ErrShardUnavailable):
			anyUnavail = true
			m.exclude(i)
		case refused < 0:
			refused = i
		}
	}
	return anyOK, anyUnavail && !vetoed, refused
}

// settle records debt for every member that skipped or failed a batch
// the caller judged mutated — BEFORE any error return, so no path skips
// the accounting. An unavailable leg proves nothing (a remote member
// applies a fully received body under a detached context), so it owes
// conservatively.
func (m *members) settle(legs []leg, mutated bool) {
	if !mutated {
		return
	}
	for i, l := range legs {
		if !l.called || l.err != nil {
			m.recordDebt(i)
		}
	}
}

// snapshotSource exports a snapshot from the first member that is up,
// owes nothing and can export one. A ReplicaSet member applies the same
// rule to its replicas, so a slot the Router holds in debt is never a
// source even when its replicas look healthy to the set.
func (m *members) snapshotSource(ctx context.Context) ([]byte, error) {
	var firstErr error
	for i, s := range m.shards {
		if m.down[i].Load() || m.missedWrite[i].Load() {
			continue
		}
		sp, ok := s.(SnapshotProvider)
		if !ok {
			continue
		}
		data, err := sp.Snapshot(ctx)
		if err == nil {
			return data, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, fmt.Errorf("%w: no healthy snapshot source", ErrShardUnavailable)
}
