// payload.go is the batch codec of WAL records. It mirrors the shard RPC
// wire shapes (so a logged batch round-trips exactly what the RPC
// admitted) but is owned here: the RPC layer depends on the WAL, not the
// other way around. Only Durable encodes and Recover decodes.
package wal

import (
	"context"
	"encoding/json"
	"fmt"

	"ssrec/internal/core"
	"ssrec/internal/model"
)

func marshalPayload(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wal: encode payload: %w", err)
	}
	return b, nil
}

func unmarshalPayload(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("wal: decode payload: %w", err)
	}
	return nil
}

type itemPayload struct {
	ID          string   `json:"id"`
	Category    string   `json:"category,omitempty"`
	Producer    string   `json:"producer,omitempty"`
	Entities    []string `json:"entities,omitempty"`
	Description string   `json:"description,omitempty"`
	Timestamp   int64    `json:"ts,omitempty"`
}

type obsPayload struct {
	User string      `json:"user"`
	Item itemPayload `json:"item"`
	TS   int64       `json:"ts"`
}

type observePayload struct {
	Batch []obsPayload `json:"batch"`
}

type registerPayload struct {
	Items []itemPayload `json:"items"`
}

func toItemPayload(it model.Item) itemPayload {
	return itemPayload{
		ID:          it.ID,
		Category:    it.Category,
		Producer:    it.Producer,
		Entities:    it.Entities,
		Description: it.Description,
		Timestamp:   it.Timestamp,
	}
}

func (p itemPayload) item() model.Item {
	return model.Item{
		ID:          p.ID,
		Category:    p.Category,
		Producer:    p.Producer,
		Entities:    p.Entities,
		Description: p.Description,
		Timestamp:   p.Timestamp,
	}
}

// encodeObserve encodes an observation micro-batch for a KindObserve
// record.
func encodeObserve(batch []core.Observation) ([]byte, error) {
	p := observePayload{Batch: make([]obsPayload, len(batch))}
	for i, o := range batch {
		p.Batch[i] = obsPayload{User: o.UserID, Item: toItemPayload(o.Item), TS: o.Timestamp}
	}
	return marshalPayload(p)
}

// decodeObserve decodes a KindObserve payload.
func decodeObserve(payload []byte) ([]core.Observation, error) {
	var p observePayload
	if err := unmarshalPayload(payload, &p); err != nil {
		return nil, err
	}
	batch := make([]core.Observation, len(p.Batch))
	for i, o := range p.Batch {
		batch[i] = core.Observation{UserID: o.User, Item: o.Item.item(), Timestamp: o.TS}
	}
	return batch, nil
}

// encodeRegister encodes an item-registration batch for a KindRegister
// record.
func encodeRegister(items []model.Item) ([]byte, error) {
	p := registerPayload{Items: make([]itemPayload, len(items))}
	for i, it := range items {
		p.Items[i] = toItemPayload(it)
	}
	return marshalPayload(p)
}

// decodeRegister decodes a KindRegister payload.
func decodeRegister(payload []byte) ([]model.Item, error) {
	var p registerPayload
	if err := unmarshalPayload(payload, &p); err != nil {
		return nil, err
	}
	items := make([]model.Item, len(p.Items))
	for i, ip := range p.Items {
		items[i] = ip.item()
	}
	return items, nil
}

// apply decodes one record and replays it into e. Batches re-apply in
// their original admission order, so replaying the tail past a
// checkpoint reproduces the pre-crash state exactly.
func apply(ctx context.Context, rec Record, e *core.Engine) error {
	switch rec.Kind {
	case KindObserve:
		batch, err := decodeObserve(rec.Payload)
		if err != nil {
			return fmt.Errorf("wal: record %d: %w", rec.Seq, err)
		}
		if _, err := e.ObserveBatch(ctx, batch); err != nil {
			return fmt.Errorf("wal: record %d: %w", rec.Seq, err)
		}
	case KindRegister:
		items, err := decodeRegister(rec.Payload)
		if err != nil {
			return fmt.Errorf("wal: record %d: %w", rec.Seq, err)
		}
		e.RegisterItemBatch(items)
	default:
		return fmt.Errorf("wal: record %d: unknown kind %d", rec.Seq, rec.Kind)
	}
	return nil
}
