package wal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/dataset"
	"ssrec/internal/evalx"
	"ssrec/internal/model"
)

var snapshotCache []byte

// trainedEngine boots a fresh copy of one deterministically trained
// engine; every call returns an identical twin.
func trainedEngine(t *testing.T) *core.Engine {
	t.Helper()
	if snapshotCache == nil {
		cfg := dataset.YTubeConfig(0.2)
		cfg.Seed = 31
		ds := dataset.Generate(cfg)
		eng := core.New(core.Config{Categories: ds.Categories, TrainMaxIter: 5, Restarts: 1})
		if err := evalx.Train(eng, ds, evalx.Setup{}); err != nil {
			t.Fatalf("train: %v", err)
		}
		var buf bytes.Buffer
		if err := eng.SaveTo(&buf); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		snapshotCache = buf.Bytes()
	}
	eng, err := core.LoadFrom(bytes.NewReader(snapshotCache))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return eng
}

// TestDurableColdQueryRegistration pins the query-side durability rule: a
// cold query registers items (the engine prologue mutates the replicated
// dictionaries), so Durable logs that registration BEFORE it applies, and
// Recover reproduces the served state exactly. Warm queries cost no log
// record, and a session ask takes the same logged path.
func TestDurableColdQueryRegistration(t *testing.T) {
	ctx := context.Background()
	l := mustOpen(t, Options{Dir: t.TempDir()})
	live := trainedEngine(t)
	d := NewDurable(l, live)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("boot checkpoint: %v", err)
	}

	cold := []model.Item{
		{ID: "wal-cold-0", Category: "cat02", Producer: "up0003", Entities: []string{"c02e001"}},
		{ID: "wal-cold-1", Category: "cat05", Producer: "up0001", Entities: []string{"c05e002"}},
	}
	if _, err := d.RecommendBatch(ctx, cold, core.WithK(5)); err != nil {
		t.Fatalf("cold RecommendBatch: %v", err)
	}
	if got := l.Stats().Appends; got != 1 {
		t.Fatalf("cold batch: appends = %d, want 1 (registration logged)", got)
	}
	if _, err := d.RecommendBatch(ctx, cold, core.WithK(5)); err != nil {
		t.Fatalf("warm RecommendBatch: %v", err)
	}
	if got := l.Stats().Appends; got != 1 {
		t.Fatalf("warm batch: appends = %d, want 1 (warm queries are free)", got)
	}

	// A session ask takes the same logged path: Durable exposes no
	// unlogged single-item fast path for core.Session to pick up.
	fresh := model.Item{ID: "wal-cold-ask", Category: "cat03", Producer: "up0002", Entities: []string{"c03e001"}}
	ses := core.NewSession(ctx, d)
	if err := ses.Ask(fresh, core.WithK(5)); err != nil {
		t.Fatalf("session ask: %v", err)
	}
	if res := <-ses.Results(); res.Err != nil {
		t.Fatalf("session ask result: %v", res.Err)
	}
	if err := ses.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	if got := l.Stats().Appends; got != 2 {
		t.Fatalf("cold session ask: appends = %d, want 2", got)
	}

	// An observe after the registrations, so replay ordering matters.
	obs := []core.Observation{{UserID: "uc00001", Item: cold[0], Timestamp: 1700000000}}
	if rep, err := d.ObserveBatch(ctx, obs); err != nil || rep.Applied != 1 {
		t.Fatalf("ObserveBatch: rep=%+v err=%v", rep, err)
	}
	if rep, err := d.ObserveBatch(ctx, nil); err != nil || rep.Applied != 0 || l.Stats().Appends != 3 {
		t.Fatalf("empty ObserveBatch: rep=%+v err=%v appends=%d, want a no-op", rep, err, l.Stats().Appends)
	}

	rec, replayed, err := Recover(context.Background(), l, core.LoadFrom)
	if err != nil || rec == nil || replayed != 3 {
		t.Fatalf("Recover = %v, %d, %v; want a Durable after 3 replayed records", rec, replayed, err)
	}
	twin := rec.Engine()
	for _, p := range append(append([]model.Item{}, cold...), fresh) {
		if want, got := live.Recommend(p, 10), twin.Recommend(p, 10); !reflect.DeepEqual(want, got) {
			t.Fatalf("recovered engine diverges on %s:\n live %v\n twin %v", p.ID, want, got)
		}
	}
	if d.Users() != twin.Users() || d.IndexView() != twin.IndexView() {
		t.Fatalf("recovered engine stats diverge: users %d/%d", d.Users(), twin.Users())
	}
}

// TestDurableRefusesUnloggedWrites: when the log cannot take a record,
// the write fails with ErrNotLogged and nothing is applied that recovery
// could not replay.
func TestDurableRefusesUnloggedWrites(t *testing.T) {
	ctx := context.Background()
	l := mustOpen(t, Options{Dir: t.TempDir()})
	live := trainedEngine(t)
	d := NewDurable(l, live)
	l.Close()

	cold := []model.Item{{ID: "wal-refused", Category: "cat02", Producer: "up0003", Entities: []string{"c02e001"}}}
	res, err := d.RecommendBatch(ctx, cold, core.WithK(5))
	if !errors.Is(err, ErrClosed) || !errors.Is(err, ErrNotLogged) {
		t.Fatalf("cold RecommendBatch on a closed log: err = %v, want ErrNotLogged wrapping ErrClosed", err)
	}
	if len(res) != 1 || res[0].ItemID != cold[0].ID || !errors.Is(res[0].Err, ErrNotLogged) {
		t.Fatalf("cold RecommendBatch on a closed log: results = %+v, want the item failed with ErrNotLogged", res)
	}
	if !live.NeedsRegistration(cold) {
		t.Fatal("registration applied although its log append failed")
	}
	users := live.Users()
	obs := []core.Observation{{UserID: "wal-refused-user", Item: cold[0], Timestamp: 1700000000}}
	if _, err := d.ObserveBatch(ctx, obs); !errors.Is(err, ErrClosed) || !errors.Is(err, ErrNotLogged) {
		t.Fatalf("ObserveBatch on a closed log: err = %v, want ErrNotLogged wrapping ErrClosed", err)
	}
	if live.Users() != users || !live.NeedsRegistration(cold) {
		t.Fatal("observation applied although its log append failed")
	}
}

// TestDurableConcurrentWriters hammers one Durable from several
// goroutines — cold queries racing on the same items, observations,
// checkpoints and a mid-stream Rebase — and requires Recover to rebuild
// exactly the live engine: the one mutex orders every record, apply,
// checkpoint and swap. Run it under -race.
func TestDurableConcurrentWriters(t *testing.T) {
	ctx := context.Background()
	l := mustOpen(t, Options{Dir: t.TempDir()})
	d := NewDurable(l, trainedEngine(t))
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	handoff := trainedEngine(t)
	var cold []model.Item
	for i := 0; i < 12; i++ {
		cold = append(cold, model.Item{ID: fmt.Sprintf("hammer-%02d", i), Category: fmt.Sprintf("cat%02d", i%5),
			Producer: fmt.Sprintf("up%04d", i%4), Entities: []string{fmt.Sprintf("c%02de001", i%5)}})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i+2 <= len(cold); i++ {
				if _, err := d.RecommendBatch(ctx, cold[i:i+2], core.WithK(3)); err != nil {
					t.Error(err)
					return
				}
				obs := []core.Observation{{UserID: fmt.Sprintf("uc%05d", w*20+i), Item: cold[i], Timestamp: int64(1700000000 + i)}}
				if _, err := d.ObserveBatch(ctx, obs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := d.Checkpoint(); err != nil {
				t.Error(err)
			}
			if i == 1 {
				if err := d.Rebase(handoff); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Wait()

	rec, _, err := Recover(ctx, l, core.LoadFrom)
	if err != nil || rec == nil {
		t.Fatalf("Recover = %v, %v", rec, err)
	}
	live, twin := d.Engine(), rec.Engine()
	if live != handoff || live.Users() != twin.Users() {
		t.Fatalf("recovered %d users, live %d (rebased: %v)", twin.Users(), live.Users(), live == handoff)
	}
	for _, p := range cold {
		if want, got := live.Recommend(p, 10), twin.Recommend(p, 10); !reflect.DeepEqual(want, got) {
			t.Fatalf("recovered engine diverges on %s:\n live %v\n twin %v", p.ID, want, got)
		}
	}
}

// TestRecoverRefusesMissingBaseline: an empty log recovers nothing
// (no error), a log with records but no checkpoint is refused, and a
// checkpoint the loader rejects fails recovery.
func TestRecoverRefusesMissingBaseline(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if d, n, err := Recover(context.Background(), l, core.LoadFrom); d != nil || n != 0 || err != nil {
		t.Fatalf("Recover(empty) = %v, %d, %v; want nil, 0, nil", d, n, err)
	}
	if _, err := l.Append(KindObserve, []byte(`{"batch":[]}`)); err != nil {
		t.Fatal(err)
	}
	if d, _, err := Recover(context.Background(), l, core.LoadFrom); d != nil || err == nil {
		t.Fatalf("Recover(records, no checkpoint) = %v, %v; want a refusal", d, err)
	}
	if err := l.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("not a snapshot")); return err }); err != nil {
		t.Fatal(err)
	}
	if d, _, err := Recover(context.Background(), l, core.LoadFrom); d != nil || err == nil {
		t.Fatalf("Recover(bad checkpoint) = %v, %v; want an error", d, err)
	}
}

// TestDurableRebaseAlwaysCheckpoints: Checkpoint skips an idle log, but
// Rebase swaps the engine and anchors a checkpoint even when nothing was
// logged since the last one; a failed Rebase keeps the previous engine.
func TestDurableRebaseAlwaysCheckpoints(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	a, b := trainedEngine(t), trainedEngine(t)
	d := NewDurable(l, a)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil || l.Stats().Checkpoints != 1 {
		t.Fatalf("idle Checkpoint: err=%v checkpoints=%d, want a skipped no-op", err, l.Stats().Checkpoints)
	}
	if err := d.Rebase(b); err != nil || l.Stats().Checkpoints != 2 || d.Engine() != b {
		t.Fatalf("Rebase onto an idle log: err=%v checkpoints=%d swapped=%v, want a checkpoint and the new engine",
			err, l.Stats().Checkpoints, d.Engine() == b)
	}
	l.Close()
	if err := d.Rebase(a); !errors.Is(err, ErrClosed) || d.Engine() != b {
		t.Fatalf("Rebase on a closed log: err=%v swapped=%v, want ErrClosed and the previous engine", err, d.Engine() == a)
	}
	if d.Log() != l {
		t.Fatal("Log() is not the wrapped log")
	}
}

// TestCheckpointEvery: the ticker calls checkpoint until stopped and
// reports its failures; interval <= 0 runs nothing.
func TestCheckpointEvery(t *testing.T) {
	CheckpointEvery(0, func() error { t.Fatal("disabled ticker ran"); return nil }, nil)()

	var calls, reported atomic.Int64
	failure := errors.New("boom")
	stop := CheckpointEvery(time.Millisecond, func() error {
		calls.Add(1)
		return failure
	}, func(err error) {
		if errors.Is(err, failure) {
			reported.Add(1)
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for reported.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	n := calls.Load()
	if reported.Load() < 2 {
		t.Fatalf("reported %d failures in 5s, want >= 2", reported.Load())
	}
	time.Sleep(5 * time.Millisecond)
	if calls.Load() != n {
		t.Fatal("checkpoint ran after stop returned")
	}
}

// TestStatsJSONRoundTrip: Stats is its own wire form, and it decodes
// back to the same value.
func TestStatsJSONRoundTrip(t *testing.T) {
	want := Stats{Dir: "/d", Policy: PolicyInterval, Segments: 2, Bytes: 300, LastSeq: 9, CheckpointSeq: 4,
		HasCheckpoint: true, CheckpointAgeMs: 1500, Appends: 5, Syncs: 3, Checkpoints: 1}
	b, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	const wire = `{"dir":"/d","fsync_policy":"interval","segments":2,"bytes":300,"last_seq":9,"checkpoint_seq":4,` +
		`"has_checkpoint":true,"checkpoint_age_ms":1500,"appends":5,"syncs":3,"checkpoints":1}`
	if string(b) != wire {
		t.Fatalf("wire form = %s\nwant %s", b, wire)
	}
	var got Stats
	if err := json.Unmarshal(b, &got); err != nil || got != want {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, want)
	}
	if err := json.Unmarshal([]byte(`{"segments":"x"}`), &got); err == nil {
		t.Fatal("malformed stats decoded")
	}
}
