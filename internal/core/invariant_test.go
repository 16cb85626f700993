package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ssrec/internal/model"
)

// cancelAfter is a context whose Err turns to context.Canceled on its
// (after+1)-th call, so a batch can be cancelled between two of its own
// polls without a timer.
type cancelAfter struct {
	context.Context
	calls, after int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestNoMaintenancePendingWhenUnlocked holds the engine's maintenance
// invariant: after every public call returns, no index maintenance is
// pending (the dirty set is empty), so a query never has to flush, and an
// item the engine has seen never needs registering again.
func TestNoMaintenancePendingWhenUnlocked(t *testing.T) {
	e, items, irs := streamEngine(t, Config{})
	check := func(call string, e *Engine) {
		t.Helper()
		e.mu.RLock()
		defer e.mu.RUnlock()
		if n := len(e.dirty); n != 0 {
			t.Fatalf("after %s: %d users await maintenance", call, n)
		}
	}
	check("Train", e)

	byID := make(map[string]model.Item, len(items))
	for _, v := range items {
		byID[v.ID] = v
	}
	var obs []Observation
	for _, ir := range irs {
		if v, ok := byID[ir.ItemID]; ok {
			obs = append(obs, Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
		}
	}
	if len(obs) < 200 {
		t.Fatalf("stream too short: %d observations", len(obs))
	}

	for _, o := range obs[:10] {
		e.Observe(o.interaction(), o.Item)
		check("Observe", e)
		if e.NeedsRegistration([]model.Item{o.Item}) {
			t.Fatalf("item %s needs registration right after it was observed", o.Item.ID)
		}
	}

	rep, err := e.ObserveBatch(context.Background(), obs[10:60])
	if err != nil || rep.Flushed == 0 {
		t.Fatalf("ObserveBatch: %+v, %v", rep, err)
	}
	check("ObserveBatch", e)

	// Cancelled at the poll after the first obsCtxCheckEvery entries: the
	// applied prefix is flushed before the call returns.
	ctx := &cancelAfter{Context: context.Background(), after: 1}
	rep, err = e.ObserveBatch(ctx, obs[60:200])
	if !errors.Is(err, context.Canceled) || rep.Applied != obsCtxCheckEvery || rep.Flushed == 0 {
		t.Fatalf("cancelled ObserveBatch: %+v, %v; want %d applied and flushed", rep, err, obsCtxCheckEvery)
	}
	check("cancelled ObserveBatch", e)

	fresh := []model.Item{
		{ID: "invariant-fresh-1", Category: items[0].Category, Producer: items[0].Producer, Entities: items[0].Entities},
		{ID: "invariant-fresh-2", Category: items[1].Category, Producer: items[1].Producer, Entities: items[1].Entities},
	}
	if !e.RegisterItemBatch(fresh[:1]) {
		t.Fatal("RegisterItemBatch of an unseen item reported no change")
	}
	check("RegisterItemBatch", e)
	if e.RegisterItemBatch(fresh[:1]) || e.NeedsRegistration(fresh[:1]) {
		t.Fatal("a warm RegisterItemBatch changed something")
	}
	if _, err := e.RecommendBatch(context.Background(), fresh, WithK(5)); err != nil {
		t.Fatalf("RecommendBatch: %v", err)
	}
	check("RecommendBatch", e)

	var snap bytes.Buffer
	if err := e.SaveTo(&snap); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	check("SaveTo", e)
	loaded, err := LoadFrom(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	check("LoadFrom", loaded)
	shard, err := LoadShardFrom(bytes.NewReader(snap.Bytes()), 1, 2)
	if err != nil {
		t.Fatalf("LoadShardFrom: %v", err)
	}
	check("LoadShardFrom", shard)
	for _, l := range []*Engine{loaded, shard} {
		l.Observe(obs[len(obs)-1].interaction(), obs[len(obs)-1].Item)
		check("Observe after load", l)
	}
}
