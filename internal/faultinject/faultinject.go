// Package faultinject is the chaos harness of the sharded deployment: a
// shard.Shard implementation (plus Pinger / SnapshotReceiver /
// SnapshotProvider) that wraps an in-process engine behind a fault plane
// — seeded random drops, latency spikes, stalls and explicit mid-stream
// kills — so the conformance suite can prove the Router + ReplicaSet +
// Supervisor machinery keeps a replicated deployment bit-identical and
// available under process loss, without real processes or real clocks.
//
// A Node mimics a shardd's lifecycle exactly as the Router observes it:
// Boot installs an engine and mints a fresh boot epoch, Kill makes every
// call fail with shard.ErrShardUnavailable AND discards the engine (a
// crashed process loses its state), Revive brings the transport back with
// the node still blank — the restarted-but-empty shardd the fail-closed
// re-inclusion rules exist for. Handoff re-seeds it (core.LoadShardFrom +
// a new epoch), exactly like POST /shard/v1/snapshot.
//
// Every injected fault is recorded in the shared Log — the fault matrix a
// chaos run uploads as a CI artifact, proving the run actually exercised
// faults rather than passing vacuously.
package faultinject

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/sigtree"
)

// Entry is one injected fault.
type Entry struct {
	Node  string // "slot<i>/replica<j>" or any label given at construction
	Op    string // the shard operation the fault hit
	Fault string // drop | spike | stall | killed | blank
}

// Log is the shared fault matrix of one chaos run.
type Log struct {
	mu      sync.Mutex
	entries []Entry
}

func (l *Log) add(e Entry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.entries = append(l.entries, e)
	l.mu.Unlock()
}

// Entries snapshots the recorded faults.
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.entries...)
}

// Count reports how many recorded faults have the given kind ("" counts
// everything).
func (l *Log) Count(fault string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if fault == "" {
		return len(l.entries)
	}
	n := 0
	for _, e := range l.entries {
		if e.Fault == fault {
			n++
		}
	}
	return n
}

// WriteTo dumps the fault matrix as one line per fault — the CI artifact.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for i, e := range l.entries {
		n, err := fmt.Fprintf(w, "%6d %-20s %-14s %s\n", i, e.Node, e.Op, e.Fault)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Faults are the randomized fault probabilities of one Node, drawn from
// the node's seeded RNG per operation. Zero values inject nothing — kills
// are always explicit, so a run with zero rates is deterministic.
type Faults struct {
	// DropRate fails the call with shard.ErrShardUnavailable.
	DropRate float64
	// SpikeRate delays the call by SpikeDelay before running it.
	SpikeRate  float64
	SpikeDelay time.Duration
	// StallRate delays by StallDelay (a long stall models a frozen host;
	// keep it under the caller's timeout or pair it with DropRate).
	StallRate  float64
	StallDelay time.Duration
}

// bootState pairs the engine with its epoch, published atomically —
// mirroring shardrpc.Server.
type bootState struct {
	local *shard.Local
	epoch string
}

// Node is one chaos-wrapped replica.
type Node struct {
	idx, of int
	name    string
	log     *Log

	boot   atomic.Pointer[bootState]
	killed atomic.Bool
	seq    atomic.Uint64 // epoch counter (deterministic, unlike shardd's nonce)

	mu     sync.Mutex
	rng    *rand.Rand
	faults Faults
}

// New builds a blank node for slot idx of an of-slot deployment. seed
// drives the node's private fault RNG; name labels it in the fault
// matrix.
func New(idx, of int, name string, seed int64, log *Log) *Node {
	return &Node{idx: idx, of: of, name: name, log: log, rng: rand.New(rand.NewSource(seed))}
}

// SetFaults installs the randomized fault rates (safe at any time).
func (n *Node) SetFaults(f Faults) {
	n.mu.Lock()
	n.faults = f
	n.mu.Unlock()
}

// Boot installs an engine (already partitioned as slot idx of of) and
// mints a fresh boot epoch.
func (n *Node) Boot(e *core.Engine) {
	n.boot.Store(&bootState{
		local: shard.NewLocal(n.idx, e),
		epoch: fmt.Sprintf("fi-%s-%d", n.name, n.seq.Add(1)),
	})
	n.killed.Store(false)
}

// Kill crashes the node: every call fails unavailable and the engine
// state is DISCARDED — a revived node is blank until re-seeded.
func (n *Node) Kill() {
	n.killed.Store(true)
	n.boot.Store(nil)
}

// Revive restores the transport without restoring state: the node
// answers again but is blank (Ping fails, serving calls fail) until a
// snapshot handoff boots it — the restarted shardd lifecycle.
func (n *Node) Revive() {
	n.killed.Store(false)
}

// Index implements shard.Shard.
func (n *Node) Index() int { return n.idx }

// fault applies the fault plane to one operation: explicit kill first,
// then the seeded random faults. Returns the error the operation must
// fail with, or nil to proceed.
func (n *Node) fault(op string) error {
	if n.killed.Load() {
		n.log.add(Entry{Node: n.name, Op: op, Fault: "killed"})
		return fmt.Errorf("faultinject: node %s killed: %s: %w", n.name, op, shard.ErrShardUnavailable)
	}
	n.mu.Lock()
	f := n.faults
	var drop, spike, stall bool
	if f.DropRate > 0 {
		drop = n.rng.Float64() < f.DropRate
	}
	if f.SpikeRate > 0 {
		spike = n.rng.Float64() < f.SpikeRate
	}
	if f.StallRate > 0 {
		stall = n.rng.Float64() < f.StallRate
	}
	n.mu.Unlock()
	if stall {
		n.log.add(Entry{Node: n.name, Op: op, Fault: "stall"})
		time.Sleep(f.StallDelay)
	} else if spike {
		n.log.add(Entry{Node: n.name, Op: op, Fault: "spike"})
		time.Sleep(f.SpikeDelay)
	}
	if drop {
		n.log.add(Entry{Node: n.name, Op: op, Fault: "drop"})
		return fmt.Errorf("faultinject: node %s dropped %s: %w", n.name, op, shard.ErrShardUnavailable)
	}
	return nil
}

// serving returns the booted local or an unavailable error — the 503 a
// blank shardd answers.
func (n *Node) serving(op string) (*shard.Local, error) {
	b := n.boot.Load()
	if b == nil {
		n.log.add(Entry{Node: n.name, Op: op, Fault: "blank"})
		return nil, fmt.Errorf("faultinject: node %s not booted: %s: %w", n.name, op, shard.ErrShardUnavailable)
	}
	return b.local, nil
}

// RegisterItems implements shard.Shard.
func (n *Node) RegisterItems(ctx context.Context, items []model.Item) (bool, error) {
	if err := n.fault("register"); err != nil {
		return false, err
	}
	l, err := n.serving("register")
	if err != nil {
		return false, err
	}
	return l.RegisterItems(ctx, items)
}

// ObserveBatch implements shard.Shard.
func (n *Node) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	if err := n.fault("observe"); err != nil {
		return core.BatchReport{}, err
	}
	l, err := n.serving("observe")
	if err != nil {
		return core.BatchReport{}, err
	}
	return l.ObserveBatch(ctx, batch)
}

// Recommend implements shard.Shard: a fault or a blank node fails the
// ask before its registration, as a dropped or 503 ask does.
func (n *Node) Recommend(ctx context.Context, v model.Item, o core.QueryOptions, b *sigtree.Bound) (core.Result, bool, error) {
	if err := n.fault("recommend"); err != nil {
		return core.Result{ItemID: v.ID}, false, err
	}
	l, err := n.serving("recommend")
	if err != nil {
		return core.Result{ItemID: v.ID}, false, err
	}
	return l.Recommend(ctx, v, o, b)
}

// Stats implements shard.Shard (zero-valued when killed or blank, like a
// remote shard whose stats call failed).
func (n *Node) Stats() shard.Stats {
	if n.killed.Load() {
		return shard.Stats{Shard: n.idx}
	}
	b := n.boot.Load()
	if b == nil {
		return shard.Stats{Shard: n.idx}
	}
	return b.local.Stats()
}

// Ping implements shard.Pinger under the same contract as the RPC
// client: nil only when reachable AND trained, with the boot epoch.
func (n *Node) Ping(ctx context.Context) (string, error) {
	if err := n.fault("ping"); err != nil {
		return "", err
	}
	b := n.boot.Load()
	if b == nil {
		n.log.add(Entry{Node: n.name, Op: "ping", Fault: "blank"})
		return "", fmt.Errorf("faultinject: node %s not booted: %w", n.name, shard.ErrShardUnavailable)
	}
	if !b.local.Engine().Trained() {
		return "", fmt.Errorf("faultinject: node %s not trained: %w", n.name, shard.ErrShardUnavailable)
	}
	return b.epoch, nil
}

// Handoff implements shard.SnapshotReceiver: re-boots the node from the
// snapshot with a fresh epoch — the POST /shard/v1/snapshot path. The
// fault plane applies: a dropped handoff leaves the node in its previous
// state, exactly like a failed network push.
func (n *Node) Handoff(ctx context.Context, snapshot []byte) error {
	if err := n.fault("handoff"); err != nil {
		return err
	}
	e, err := core.LoadShardFrom(bytes.NewReader(snapshot), n.idx, n.of)
	if err != nil {
		return fmt.Errorf("faultinject: node %s handoff: %w", n.name, err)
	}
	n.Boot(e)
	return nil
}

// Replay implements shard.Replayer — the POST /shard/v1/replay delta
// catch-up path. The fault plane applies; a blank node refuses (it has
// no state to catch up, steering the supervisor to the snapshot path,
// like a shardd's 503). Success mints a fresh epoch, mirroring the
// shardd handler's proof-of-reseed.
func (n *Node) Replay(ctx context.Context, batches []shard.ReplayBatch) error {
	if err := n.fault("replay"); err != nil {
		return err
	}
	l, err := n.serving("replay")
	if err != nil {
		return err
	}
	if !l.Engine().Trained() {
		return fmt.Errorf("faultinject: node %s not trained; needs a snapshot, not a delta: %w", n.name, shard.ErrShardUnavailable)
	}
	if err := l.Replay(ctx, batches); err != nil {
		return err
	}
	b := n.boot.Load()
	if b != nil {
		n.boot.Store(&bootState{local: b.local, epoch: fmt.Sprintf("fi-%s-%d", n.name, n.seq.Add(1))})
	}
	return nil
}

// Snapshot implements shard.SnapshotProvider — the GET /shard/v1/snapshot
// export the supervisor reseeds from.
func (n *Node) Snapshot(ctx context.Context) ([]byte, error) {
	if err := n.fault("snapshot"); err != nil {
		return nil, err
	}
	l, err := n.serving("snapshot")
	if err != nil {
		return nil, err
	}
	return l.Snapshot(ctx)
}

var (
	_ shard.Shard            = (*Node)(nil)
	_ shard.Pinger           = (*Node)(nil)
	_ shard.SnapshotReceiver = (*Node)(nil)
	_ shard.SnapshotProvider = (*Node)(nil)
	_ shard.Replayer         = (*Node)(nil)
)
