// members_test.go unit-tests the member-set primitive both deployment
// levels embed, over fake members with no engine behind them: exclusion,
// generation-guarded debt, the boot-epoch proof of re-seed, the reseed
// sequence, the write fan-out's leg sorting and debt settlement, and the
// snapshot-source rule.
package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/sigtree"
)

// fakeMember is a scriptable member: ping, push, export and write
// outcomes are set per test, and the boot epoch is a counter.
type fakeMember struct {
	idx      int
	pingErr  atomic.Pointer[error]
	writeErr atomic.Pointer[error]
	epoch    atomic.Int64
	exports  atomic.Int64
	failSnap atomic.Bool
}

func (f *fakeMember) Index() int { return f.idx }

func (f *fakeMember) call() error {
	if p := f.writeErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (f *fakeMember) RegisterItems(context.Context, []model.Item) (bool, error) {
	return true, f.call()
}

func (f *fakeMember) ObserveBatch(_ context.Context, batch []core.Observation) (core.BatchReport, error) {
	return core.BatchReport{Applied: len(batch)}, f.call()
}

func (f *fakeMember) Recommend(_ context.Context, v model.Item, _ core.QueryOptions, _ *sigtree.Bound) (core.Result, bool, error) {
	return core.Result{ItemID: v.ID}, false, f.call()
}

func (f *fakeMember) Stats() Stats { return Stats{Shard: f.idx, Trained: true} }

func (f *fakeMember) Ping(context.Context) (string, error) {
	if p := f.pingErr.Load(); p != nil {
		return "", *p
	}
	return fmt.Sprintf("epoch-%d", f.epoch.Load()), nil
}

func (f *fakeMember) Handoff(context.Context, []byte) error {
	f.epoch.Add(1)
	return nil
}

func (f *fakeMember) Snapshot(context.Context) ([]byte, error) {
	if f.failSnap.Load() {
		return nil, errors.New("fake export refused")
	}
	f.exports.Add(1)
	return []byte{byte(f.idx)}, nil
}

func (f *fakeMember) setPing(err error)  { f.pingErr.Store(&err) }
func (f *fakeMember) setWrite(err error) { f.writeErr.Store(&err) }
func (f *fakeMember) heal()              { f.pingErr.Store(nil); f.writeErr.Store(nil) }

// inProcessMember has only the Shard surface — no Ping, like an
// in-process engine — and reports its trained flag.
type inProcessMember struct {
	Shard
	trained bool
}

func (p inProcessMember) Stats() Stats { return Stats{Trained: p.trained} }

func newFakeMembers(n int) (*members, []*fakeMember) {
	fakes := make([]*fakeMember, n)
	shards := make([]Shard, n)
	for i := range fakes {
		fakes[i] = &fakeMember{idx: i}
		shards[i] = fakes[i]
	}
	m := &members{}
	m.init(shards)
	return m, fakes
}

var errUnavail = fmt.Errorf("%w: fake transport down", ErrShardUnavailable)

func TestMembersDebtIsGenerationGuarded(t *testing.T) {
	m, _ := newFakeMembers(2)
	gen := m.claim(1)
	m.recordDebt(1)
	if !m.isDown(1) || !m.owes(1) {
		t.Fatal("debt did not exclude the member")
	}
	if m.includeIfUnchanged(1, gen) {
		t.Fatal("a clear captured before the debt re-included the debtor")
	}
	if !m.includeIfUnchanged(1, m.claim(1)) || m.isDown(1) || m.owes(1) {
		t.Fatal("a current-generation clear did not re-include in one step")
	}
	if got := m.downList(); got != nil {
		t.Fatalf("downList = %v, want none", got)
	}
	m.exclude(0)
	if m.owes(0) || !reflect.DeepEqual(m.downList(), []int{0}) {
		t.Fatalf("exclusion recorded debt or was not listed: owes=%v down=%v", m.owes(0), m.downList())
	}
}

func TestMembersProbeEpochProof(t *testing.T) {
	ctx := context.Background()
	m, fakes := newFakeMembers(1)
	m.recordDebt(0)

	fakes[0].setPing(errUnavail)
	if ok, _ := m.probe(ctx, 0); ok {
		t.Fatal("an unreachable debtor rejoined")
	}
	fakes[0].heal()
	// No baseline yet: fail closed, recording the observed epoch.
	if ok, _ := m.probe(ctx, 0); ok {
		t.Fatal("a debtor rejoined without a baseline")
	}
	if got := m.baseline(0); got != "epoch-0" {
		t.Fatalf("baseline = %q, want epoch-0", got)
	}
	if ok, _ := m.probe(ctx, 0); ok {
		t.Fatal("a debtor rejoined with an unchanged epoch")
	}
	fakes[0].epoch.Add(1) // re-seeded out of band
	if ok, _ := m.probe(ctx, 0); !ok || m.isDown(0) || m.owes(0) {
		t.Fatal("a provable re-seed did not re-include the debtor")
	}

	// Without debt a reachable member rejoins on a plain probe.
	m.exclude(0)
	if got := m.probeDown(ctx, m.downList()); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("probeDown = %v, want [0]", got)
	}

	// A member without a probe surface rejoins only once trained.
	mu := &members{}
	mu.init([]Shard{inProcessMember{Shard: fakes[0]}})
	mu.recordDebt(0)
	if ok, untrained := mu.probe(ctx, 0); ok || !untrained {
		t.Fatalf("untrained in-process member: ok=%v untrained=%v, want false/true", ok, untrained)
	}
	mu.shards[0] = inProcessMember{Shard: fakes[0], trained: true}
	if ok, _ := mu.probe(ctx, 0); !ok || mu.owes(0) {
		t.Fatal("a trained in-process member did not rejoin")
	}
}

func TestMembersFenceRefusesProbes(t *testing.T) {
	ctx := context.Background()
	m, _ := newFakeMembers(1)
	before := m.claim(0)
	gen := m.fence(0)
	if gen == before || !m.isDown(0) {
		t.Fatal("fence neither bumped the generation nor excluded the member")
	}
	if st, _ := m.state(0); st != "reseeding" {
		t.Fatalf("fenced state %q, want reseeding", st)
	}
	if ok, _ := m.probe(ctx, 0); ok {
		t.Fatal("a probe re-included a fenced member")
	}
	if m.includeIfUnchanged(0, before) {
		t.Fatal("a generation captured before the fence re-included the member")
	}
	m.unfence(0)
	if st, _ := m.state(0); st != "excluded" {
		t.Fatalf("unfenced state %q, want excluded", st)
	}
	if ok, _ := m.probe(ctx, 0); !ok {
		t.Fatal("an unfenced, debt-free member did not rejoin on probe")
	}
	if st, missed := m.state(0); st != "healthy" || missed {
		t.Fatalf("state %q missed=%v, want healthy", st, missed)
	}
}

func TestMembersReseed(t *testing.T) {
	ctx := context.Background()
	m, fakes := newFakeMembers(1)
	m.recordDebt(0)

	pushErr := errors.New("push refused")
	if err := m.reseed(ctx, 0, m.claim(0), func() error { return pushErr }); !errors.Is(err, pushErr) {
		t.Fatalf("reseed err = %v, want the push error", err)
	}
	if !m.isDown(0) || !m.owes(0) {
		t.Fatal("a failed push re-included the member")
	}

	// Debt recorded during the push postdates it: the member stays out.
	gen := m.claim(0)
	push := func() error {
		fakes[0].epoch.Add(1)
		m.recordDebt(0)
		return nil
	}
	if err := m.reseed(ctx, 0, gen, push); err != nil {
		t.Fatalf("reseed: %v", err)
	}
	if !m.isDown(0) || !m.owes(0) {
		t.Fatal("debt recorded mid-push was cleared by the reseed")
	}
	if got := m.baseline(0); got != "epoch-1" {
		t.Fatalf("baseline after reseed = %q, want epoch-1", got)
	}

	// A clean reseed re-includes with the fresh epoch as baseline.
	if err := m.reseed(ctx, 0, m.claim(0), func() error { return fakes[0].Handoff(ctx, nil) }); err != nil {
		t.Fatalf("reseed: %v", err)
	}
	if m.isDown(0) || m.owes(0) || m.baseline(0) != "epoch-2" {
		t.Fatalf("clean reseed: down=%v owes=%v baseline=%q", m.isDown(0), m.owes(0), m.baseline(0))
	}

	// A failed confirming ping forgets the baseline rather than keeping
	// the pre-reseed epoch.
	fakes[0].setPing(errUnavail)
	if err := m.reseed(ctx, 0, m.claim(0), func() error { return fakes[0].Handoff(ctx, nil) }); err != nil {
		t.Fatalf("reseed: %v", err)
	}
	if got := m.baseline(0); got != "" {
		t.Fatalf("baseline after a failed confirming ping = %q, want none", got)
	}
}

func TestMembersBroadcastSortsLegsAndSettles(t *testing.T) {
	m, fakes := newFakeMembers(4)
	m.exclude(0)                         // skipped
	fakes[2].setWrite(errUnavail)        // unavailable
	fakes[3].setWrite(errors.New("4xx")) // clean refusal
	legs := m.targets()
	if legs[0].called || !legs[1].called {
		t.Fatalf("targets = %+v, want member 0 skipped", legs)
	}
	anyOK, anyUnavail, refused := m.broadcast(context.Background(), legs, func(i int) error {
		_, err := fakes[i].ObserveBatch(context.Background(), nil)
		return err
	})
	if !anyOK || !anyUnavail || refused != 3 {
		t.Fatalf("broadcast = ok %v unavail %v refused %d, want true true 3", anyOK, anyUnavail, refused)
	}
	if !m.isDown(2) || m.isDown(3) {
		t.Fatal("the unavailable leg was not excluded, or the refusal was")
	}
	var unavailable []int
	for i, l := range legs {
		if l.unavailable() {
			unavailable = append(unavailable, i)
		}
	}
	if !reflect.DeepEqual(unavailable, []int{0, 2}) {
		t.Fatalf("unavailable legs %v, want [0 2]", unavailable)
	}

	m.settle(legs, false)
	for i := range fakes {
		if m.owes(i) {
			t.Fatalf("a no-op batch put debt on member %d", i)
		}
	}
	m.settle(legs, true)
	for i, want := range []bool{true, false, true, true} {
		if m.owes(i) != want {
			t.Fatalf("member %d owes %v after a mutating batch, want %v", i, m.owes(i), want)
		}
	}
}

func TestMembersSnapshotSource(t *testing.T) {
	ctx := context.Background()
	m, fakes := newFakeMembers(3)
	m.exclude(0)
	m.recordDebt(1)
	data, err := m.snapshotSource(ctx)
	if err != nil || !reflect.DeepEqual(data, []byte{2}) {
		t.Fatalf("source = %v, %v; want member 2's export", data, err)
	}
	if fakes[0].exports.Load()+fakes[1].exports.Load() != 0 {
		t.Fatal("an excluded or indebted member exported a snapshot")
	}
	fakes[2].failSnap.Store(true)
	if _, err := m.snapshotSource(ctx); err == nil || errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want the export failure", err)
	}
	m.exclude(2)
	if _, err := m.snapshotSource(ctx); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable with no source", err)
	}
}

func TestMembersMaybeProbeRejoinsAsync(t *testing.T) {
	m, _ := newFakeMembers(2)
	m.setProbeInterval(time.Nanosecond)
	if got := m.probeInterval(); got != time.Nanosecond {
		t.Fatalf("probe interval %v, want 1ns", got)
	}
	m.maybeProbe() // nothing down: no-op
	m.exclude(1)
	deadline := time.Now().Add(5 * time.Second)
	for m.isDown(1) {
		if time.Now().After(deadline) {
			t.Fatal("the lazy probe never re-included a reachable member")
		}
		m.maybeProbe()
		time.Sleep(time.Millisecond)
	}
	m.setProbeInterval(0)
	if got := m.probeInterval(); got != DefaultProbeInterval {
		t.Fatalf("probe interval %v after reset, want the default", got)
	}
}

// TestMembersConcurrentDebtNeverServes hammers one member set from write
// fan-outs, probes and reseeds at once (run it under -race): whatever
// interleaving wins, a member that owes debt is never left serving.
func TestMembersConcurrentDebtNeverServes(t *testing.T) {
	ctx := context.Background()
	m, fakes := newFakeMembers(3)
	fakes[2].setWrite(errUnavail)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // writer: every batch mutates, member 2's legs fail
		defer wg.Done()
		for i := 0; i < 300; i++ {
			legs := m.targets()
			m.broadcast(context.Background(), legs, func(i int) error {
				_, err := fakes[i].ObserveBatch(ctx, nil)
				return err
			})
			m.settle(legs, true)
		}
		close(done)
	}()
	go func() { // prober
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				m.probeDown(ctx, m.downList())
			}
		}
	}()
	go func() { // reseeder: member 2 re-seeded again and again
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = m.reseed(ctx, 2, m.claim(2), func() error { return fakes[2].Handoff(ctx, nil) })
			}
		}
	}()
	wg.Wait()
	for i := range fakes {
		if m.owes(i) && !m.isDown(i) {
			t.Fatalf("member %d owes debt but serves", i)
		}
	}
}
