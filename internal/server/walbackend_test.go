package server

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/dataset"
	"ssrec/internal/evalx"
	"ssrec/internal/model"
	"ssrec/internal/wal"
)

// walEngine trains a raw engine deterministically (same construction as
// testServer, but exposing the *core.Engine WrapWAL needs). Calling it
// twice yields twins: identical training, identical state.
func walEngine(t *testing.T) (*core.Engine, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.YTubeConfig(0.2)
	cfg.Seed = 31
	ds := dataset.Generate(cfg)
	eng := core.New(core.Config{Categories: ds.Categories, TrainMaxIter: 5, Restarts: 1})
	if err := evalx.Train(eng, ds, evalx.Setup{}); err != nil {
		t.Fatalf("train: %v", err)
	}
	return eng, ds
}

// TestWALBackendQueryRegistrationDurable pins the query-side durability
// rule: a cold query registers items (the engine prologue mutates the
// replicated dictionaries), so the backend must log that registration
// BEFORE it applies — replaying the log into a twin engine reproduces
// the served state exactly. Warm queries must cost no log record.
func TestWALBackendQueryRegistrationDurable(t *testing.T) {
	live, _ := walEngine(t)
	twin, _ := walEngine(t)

	log, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.PolicyBatch})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	defer log.Close()
	wb := WrapWAL(live, log)

	cold := []model.Item{
		{ID: "wal-cold-0", Category: "cat02", Producer: "up0003", Entities: []string{"c02e001"}},
		{ID: "wal-cold-1", Category: "cat05", Producer: "up0001", Entities: []string{"c05e002"}},
	}
	if _, err := wb.RecommendBatch(context.Background(), cold, core.WithK(5)); err != nil {
		t.Fatalf("cold RecommendBatch: %v", err)
	}
	if got := log.Stats().Appends; got != 1 {
		t.Fatalf("cold batch: appends = %d, want 1 (registration logged)", got)
	}

	// Warm repeat: nothing new to register, nothing to log.
	if _, err := wb.RecommendBatch(context.Background(), cold, core.WithK(5)); err != nil {
		t.Fatalf("warm RecommendBatch: %v", err)
	}
	if got := log.Stats().Appends; got != 1 {
		t.Fatalf("warm batch: appends = %d, want 1 (warm queries are free)", got)
	}

	// A session ask takes the same logged path: the backend exposes no
	// unlogged single-item fast path for core.Session to pick up.
	fresh := model.Item{ID: "wal-cold-ask", Category: "cat03", Producer: "up0002", Entities: []string{"c03e001"}}
	ses := core.NewSession(context.Background(), wb)
	if err := ses.Ask(fresh, core.WithK(5)); err != nil {
		t.Fatalf("session ask: %v", err)
	}
	if res := <-ses.Results(); res.Err != nil {
		t.Fatalf("session ask result: %v", res.Err)
	}
	if err := ses.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	if got := log.Stats().Appends; got != 2 {
		t.Fatalf("cold session ask: appends = %d, want 2", got)
	}

	// An observe after the registrations, so replay ordering matters.
	obs := []core.Observation{{UserID: "uc00001", Item: cold[0], Timestamp: 1700000000}}
	if _, err := wb.ObserveBatch(context.Background(), obs); err != nil {
		t.Fatalf("ObserveBatch: %v", err)
	}

	// Recovery: replay the log into the twin and compare answers.
	if err := log.Replay(0, func(rec wal.Record) error {
		return wal.Apply(context.Background(), rec, twin)
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	probes := append(append([]model.Item{}, cold...), fresh)
	for _, p := range probes {
		want := live.Recommend(p, 10)
		got := twin.Recommend(p, 10)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("recovered engine diverges on %s:\n live %v\n twin %v", p.ID, want, got)
		}
	}
}

// TestWALBackendRefusesUnloggedRegistration: when the log cannot take
// the registration record, a cold batch fails and the engine is left
// without the registration — nothing is applied that recovery could not
// replay.
func TestWALBackendRefusesUnloggedRegistration(t *testing.T) {
	live, _ := walEngine(t)
	log, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.PolicyBatch})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	wb := WrapWAL(live, log)
	log.Close()

	cold := []model.Item{{ID: "wal-refused", Category: "cat02", Producer: "up0003", Entities: []string{"c02e001"}}}
	if _, err := wb.RecommendBatch(context.Background(), cold, core.WithK(5)); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("cold RecommendBatch on a closed log: err = %v, want wal.ErrClosed", err)
	}
	if !live.NeedsRegistration(cold) {
		t.Fatal("registration applied although its log append failed")
	}
	obs := []core.Observation{{UserID: "uc00001", Item: cold[0], Timestamp: 1700000000}}
	if _, err := wb.ObserveBatch(context.Background(), obs); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("ObserveBatch on a closed log: err = %v, want wal.ErrClosed", err)
	}
}
