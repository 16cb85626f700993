// durable.go is the one durable-engine primitive: a core.Engine behind
// its write-ahead log. Both daemons write through it — ssrec-server -wal-dir
// serves it as its Backend, and every ssrec-shardd -wal-dir applies its
// write RPCs, delta replays and snapshot handoffs through it — so there is
// one append-before-apply rule, one checkpoint routine and one recovery.
package wal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/telemetry"
)

// ErrNotLogged marks a write the log refused. The write was not applied,
// so the engine still matches its log; errors.Is also matches the log's
// own cause (ErrClosed, an I/O error).
var ErrNotLogged = errors.New("wal: append failed")

// Durable is an engine behind its write-ahead log. Every write that
// changes the engine is appended before it is applied, under one mutex
// that Checkpoint and Rebase take too, so a checkpoint's snapshot and its
// sequence watermark always agree. The engine is a field, not an
// embedding: its unlogged write methods must not be reachable through a
// Durable.
type Durable struct {
	log *Log

	mu  sync.Mutex                  // serialises append+apply, Checkpoint and Rebase
	eng atomic.Pointer[core.Engine] // swapped only by Rebase, under mu
}

// NewDurable logs e's writes from here on. Unless e came from the log
// itself, the caller anchors its state with Checkpoint before serving.
func NewDurable(l *Log, e *core.Engine) *Durable {
	d := &Durable{log: l}
	d.eng.Store(e)
	return d
}

// Recover boots an engine from the log: load the latest checkpoint, then
// replay every record past it in admission order, which reproduces the
// pre-crash state exactly. It returns a nil Durable, without an error,
// when the log is empty (the caller boots from elsewhere and anchors that
// state). A log with records but no checkpoint is refused: there is no
// baseline to replay onto, and guessing one would silently diverge.
func Recover(ctx context.Context, l *Log, load func(io.Reader) (*core.Engine, error)) (d *Durable, replayed int, err error) {
	rc, seq, ok, err := l.latestCheckpoint()
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		if last := l.Stats().LastSeq; last > 0 {
			return nil, 0, fmt.Errorf("wal: %d records but no checkpoint; no baseline to replay onto", last)
		}
		return nil, 0, nil
	}
	e, err := load(rc)
	rc.Close() //nolint:errcheck // read-only
	if err != nil {
		return nil, 0, fmt.Errorf("wal: checkpoint %d: %w", seq, err)
	}
	if err := l.Replay(seq+1, func(rec Record) error {
		replayed++
		return apply(ctx, rec, e)
	}); err != nil {
		return nil, replayed, err
	}
	return NewDurable(l, e), replayed, nil
}

// Log exposes the write-ahead log (stats, shutdown).
func (d *Durable) Log() *Log { return d.log }

// Engine returns the engine currently behind the log.
func (d *Durable) Engine() *core.Engine { return d.eng.Load() }

// append logs one encoded batch; the caller holds mu.
func (d *Durable) append(ctx context.Context, kind Kind, name string, payload []byte) error {
	sp := telemetry.LeafSpan(ctx, "wal.append")
	sp.SetAttr("kind", name)
	_, err := d.log.Append(kind, payload)
	sp.End()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrNotLogged, err)
	}
	return nil
}

// RegisterItems registers items in batch order, logging the batch first,
// and only when core.Engine.NeedsRegistration says RegisterItemBatch
// would change anything: a warm batch costs no record. changed reports
// whether a previously-unseen item was registered.
func (d *Durable) RegisterItems(ctx context.Context, items []model.Item) (changed bool, err error) {
	if !d.Engine().NeedsRegistration(items) {
		return false, nil
	}
	payload, err := encodeRegister(items)
	if err != nil {
		return false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.Engine()
	if !e.NeedsRegistration(items) {
		return false, nil // a concurrent writer registered them first
	}
	if err := d.append(ctx, KindRegister, "register", payload); err != nil {
		return false, err
	}
	return e.RegisterItemBatch(items), nil
}

// ObserveBatch logs one observation micro-batch, then applies it in
// full: the record is durable, so a cancelled caller must not leave the
// engine short of what recovery will replay.
func (d *Durable) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	if len(batch) == 0 {
		return core.BatchReport{}, nil
	}
	payload, err := encodeObserve(batch)
	if err != nil {
		return core.BatchReport{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.append(ctx, KindObserve, "observe", payload); err != nil {
		return core.BatchReport{}, err
	}
	return d.Engine().ObserveBatch(context.WithoutCancel(ctx), batch)
}

// RecommendBatch answers a query batch. Queries mutate too: the batch
// prologue registers unseen items, so that registration goes through
// RegisterItems first — otherwise recovery would forget registrations the
// live engine answered with and replay later writes against a
// differently-ordered dictionary. A registration the log refuses fails
// every item, the way the engine reports ErrNotTrained.
func (d *Durable) RecommendBatch(ctx context.Context, items []model.Item, opts ...core.Option) ([]core.Result, error) {
	if len(items) > 0 && d.Engine().Trained() {
		if _, err := d.RegisterItems(ctx, items); err != nil {
			results := make([]core.Result, len(items))
			for i, v := range items {
				results[i] = core.Result{ItemID: v.ID, Err: err}
			}
			return results, err
		}
	}
	return d.Engine().RecommendBatch(ctx, items, opts...)
}

// Users reports the engine's profile count.
func (d *Durable) Users() int { return d.Engine().Users() }

// Parallelism reports the engine's intra-query worker count.
func (d *Durable) Parallelism() int { return d.Engine().Parallelism() }

// IndexView snapshots the engine's index statistics.
func (d *Durable) IndexView() core.IndexStatsView { return d.Engine().IndexView() }

// Checkpoint snapshots the engine into the log and compacts the records
// it covers. It is a no-op when nothing was logged since the last
// checkpoint: every change reaches the engine through a logged write, so
// the checkpoint on disk still describes it.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st := d.log.Stats(); st.HasCheckpoint && st.LastSeq == st.CheckpointSeq {
		return nil
	}
	return d.log.Checkpoint(d.Engine().SaveTo)
}

// Rebase swaps in an engine whose state the log does not describe (a
// snapshot handoff) and anchors it with a checkpoint under the same lock,
// so no write lands between the swap and its baseline. It always
// checkpoints, even on an idle log. When the checkpoint fails the previous
// engine stays in place.
func (d *Durable) Rebase(e *core.Engine) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.log.Checkpoint(e.SaveTo); err != nil {
		return err
	}
	d.eng.Store(e)
	return nil
}

// CheckpointEvery calls checkpoint every interval until the returned stop
// is called, passing failures to report; interval <= 0 disables it. stop
// waits for a running checkpoint to finish.
func CheckpointEvery(interval time.Duration, checkpoint func() error, report func(error)) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if err := checkpoint(); err != nil {
					report(err)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
