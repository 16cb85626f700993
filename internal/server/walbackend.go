// walbackend.go makes the single-engine deployment durable: WrapWAL
// interposes a write-ahead log between the HTTP handlers and the engine,
// appending every admitted write — observe micro-batches and the item
// registrations a cold query batch performs — BEFORE applying it, under
// one mutex so a checkpoint's snapshot and its sequence watermark always
// agree (the same ordering internal/shardrpc applies per shard). A write
// that cannot be made durable is not applied: the call fails, and
// /v2/observe reports the failure on its summary line.
package server

import (
	"context"
	"fmt"
	"io"
	"sync"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/telemetry"
	"ssrec/internal/wal"
)

// WALBackend is a Backend that logs every write durably before applying
// it to the wrapped engine. The engine is a field, not an embedding: an
// embedded engine would re-export its unlogged write methods and let a
// caller bypass the log.
type WALBackend struct {
	eng *core.Engine
	log *wal.Log

	mu sync.Mutex // serialises append+apply against Checkpoint
}

// WrapWAL wraps an engine with the durable ingest log. The caller
// recovers the log into the engine BEFORE wrapping (see cmd/ssrec-server):
// WrapWAL only covers writes from here on.
func WrapWAL(e *core.Engine, l *wal.Log) *WALBackend {
	return &WALBackend{eng: e, log: l}
}

// Log exposes the underlying WAL (for stats and shutdown checkpoints).
func (b *WALBackend) Log() *wal.Log { return b.log }

// Checkpoint writes an engine snapshot into the log and compacts the
// segments it covers. Taken under the same mutex as every append+apply,
// so the snapshot and the checkpoint's sequence watermark agree.
func (b *WALBackend) Checkpoint() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.Checkpoint(func(w io.Writer) error { return b.eng.SaveTo(w) })
}

// RecommendBatch implements Backend. Queries mutate too: the batch
// prologue registers every unseen item, advancing the replicated
// dictionaries, so a batch that would register anything logs the
// registration BEFORE it applies — otherwise a crash would forget
// registrations the live engine answered with, and recovery would
// replay later writes against a differently-ordered dictionary. A warm
// batch (the steady state) costs no log record; the engine's own
// prologue then finds nothing to do.
func (b *WALBackend) RecommendBatch(ctx context.Context, items []model.Item, opts ...core.Option) ([]core.Result, error) {
	if len(items) > 0 && b.eng.Trained() {
		b.mu.Lock()
		if b.eng.NeedsRegistration(items) {
			payload, err := wal.EncodeRegister(items)
			if err != nil {
				b.mu.Unlock()
				return nil, fmt.Errorf("wal encode: %w", err)
			}
			sp := telemetry.LeafSpan(ctx, "wal.append")
			sp.SetAttr("kind", "register")
			_, err = b.log.Append(wal.KindRegister, payload)
			sp.End()
			if err != nil {
				b.mu.Unlock()
				return nil, fmt.Errorf("wal append: %w", err)
			}
			b.eng.RegisterItemBatch(items)
		}
		b.mu.Unlock()
	}
	return b.eng.RecommendBatch(ctx, items, opts...)
}

// ObserveBatch implements Backend: durable first, then apply. An append
// failure refuses the batch — the ack must mean "recoverable".
func (b *WALBackend) ObserveBatch(ctx context.Context, batch []core.Observation) (core.BatchReport, error) {
	if len(batch) == 0 {
		return b.eng.ObserveBatch(ctx, batch)
	}
	payload, err := wal.EncodeObserve(batch)
	if err != nil {
		return core.BatchReport{}, fmt.Errorf("wal encode: %w", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	sp := telemetry.LeafSpan(ctx, "wal.append")
	sp.SetAttr("kind", "observe")
	_, err = b.log.Append(wal.KindObserve, payload)
	sp.End()
	if err != nil {
		return core.BatchReport{}, fmt.Errorf("wal append: %w", err)
	}
	return b.eng.ObserveBatch(ctx, batch)
}

// Users implements Backend.
func (b *WALBackend) Users() int { return b.eng.Users() }

// Parallelism implements Backend.
func (b *WALBackend) Parallelism() int { return b.eng.Parallelism() }

// IndexView implements Backend.
func (b *WALBackend) IndexView() core.IndexStatsView { return b.eng.IndexView() }
