package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"ssrec/internal/bihmm"
	"ssrec/internal/model"
)

// checkPredictionsReplay asserts that every cached prediction row equals a
// full replay of the user's history (bihmm.PredictNextMarginal), bit for
// bit, and that no entry is stale — it runs right after a flush, which
// refreshes every user observed since the previous one. It returns how
// many checked users predict from their own model and from the
// population model.
func checkPredictionsReplay(t *testing.T, e *Engine, step string) (own, pop int) {
	t.Helper()
	for id, ce := range e.predCache {
		obs := e.consumerObs[id]
		if ce.obsLen != len(obs) {
			t.Fatalf("%s: user %s entry computed at %d observations, history has %d", step, id, ce.obsLen, len(obs))
		}
		m := e.consumers[id]
		if m == nil {
			m = e.population
			pop++
		} else {
			own++
		}
		winLen := 0
		if p, ok := e.store.Lookup(id); ok {
			winLen = min(p.WindowLen(), len(obs))
		}
		sides := []struct {
			name string
			got  []float64
			seq  []bihmm.Obs
		}{
			{"long", ce.long, obs[:len(obs)-winLen]},
			{"short", ce.short, obs[len(obs)-winLen:]},
		}
		for _, side := range sides {
			want := m.PredictNextMarginal(side.seq, nil)
			for c := range want {
				if math.Float64bits(side.got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("%s: user %s %s row cat %d = %v, full replay %v",
						step, id, side.name, c, side.got[c], want[c])
				}
			}
		}
	}
	return own, pop
}

// TestPredictionMatchesFullReplay is the oracle of the incremental fold:
// over a seeded stream that rolls windows (of the default size and of
// one event), for users on their own model and on the population model,
// across a snapshot round trip (whose load rebuilds every forward state
// from scratch) and at flush granularities 1 and 64, every cached
// prediction equals a full forward replay.
func TestPredictionMatchesFullReplay(t *testing.T) {
	ds := testDataset(t)
	parts := ds.Partition(6)
	stream := append(parts[2][:len(parts[2]):len(parts[2])], parts[3]...)
	arms := []struct {
		name          string
		updateBatch   int
		window        int  // WindowSize; 0 = default
		batchAPI      bool // ingest through ObserveBatch(64) instead of Observe
		users, maxObs int  // > 0: follow only the stream's first users, up to maxObs observations
	}{
		// Every observation flushes and every flush replays every user:
		// follow a subset of users, each long enough to roll its window.
		{"observe/batch=1", 1, 0, false, 24, 240},
		// Every observation rolls the window, so the short side's start
		// moves while its length stays 1.
		{"observe/batch=1/window=1", 1, 1, false, 24, 120},
		{"observe/batch=64", 64, 0, false, 0, 0},
		{"observebatch=64", 0, 0, true, 0, 0},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			eng := trainedEngine(t, ds, func(c *Config) {
				c.UpdateBatch, c.WindowSize = arm.updateBatch, arm.window
			})
			checkPredictionsReplay(t, eng, "after train")
			stream := stream
			if arm.users > 0 {
				stream = followUsers(stream, arm.users, arm.maxObs)
			}
			limit := len(stream)
			half := limit / 2
			var own, pop, flushes, rolls int
			ingest := func(from, to int) {
				for i := from; i < to; {
					if arm.batchAPI {
						var batch []Observation
						for ; i < to && len(batch) < 64; i++ {
							ir := stream[i]
							if v, ok := ds.Item(ir.ItemID); ok {
								batch = append(batch, Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
							}
						}
						if _, err := eng.ObserveBatch(context.Background(), batch); err != nil {
							t.Fatalf("ObserveBatch: %v", err)
						}
					} else {
						ir := stream[i]
						i++
						v, ok := ds.Item(ir.ItemID)
						if !ok {
							continue
						}
						if p, ok := eng.store.Lookup(ir.UserID); ok && p.WindowLen() == p.WindowSize() {
							rolls++
						}
						eng.Observe(ir, v)
						if eng.sinceFlush != 0 {
							continue
						}
					}
					o, p := checkPredictionsReplay(t, eng, fmt.Sprintf("after observation %d", i))
					own, pop = own+o, pop+p
					flushes++
				}
			}
			ingest(0, half)
			var buf bytes.Buffer
			if err := eng.SaveTo(&buf); err != nil {
				t.Fatalf("SaveTo: %v", err)
			}
			loaded, err := LoadFrom(&buf)
			if err != nil {
				t.Fatalf("LoadFrom: %v", err)
			}
			eng = loaded
			checkLeafUsersPredicted(t, eng, "after load")
			checkPredictionsReplay(t, eng, "after load")
			ingest(half, limit)
			if flushes < 3 || own == 0 || pop == 0 {
				t.Fatalf("weak sweep: %d flushes checked, %d own-model and %d population rows", flushes, own, pop)
			}
			if !arm.batchAPI && rolls == 0 {
				t.Fatal("the stream never rolled a window")
			}
		})
	}
}

// checkLeafUsersPredicted asserts that e's prediction cache holds exactly
// the users with a leaf in some tree of its index: what a build that
// filled the cache lazily, as it read each leaf's Pl and Ps, left behind.
func checkLeafUsersPredicted(t *testing.T, e *Engine, step string) {
	t.Helper()
	leafUsers := map[string]bool{}
	for b := range e.index.Stats().Blocks {
		for _, cat := range e.cfg.Categories {
			if tr := e.index.Tree(b, cat); tr != nil {
				for _, id := range tr.Users() {
					leafUsers[id] = true
				}
			}
		}
	}
	if len(leafUsers) == 0 {
		t.Fatalf("%s: the index holds no leaves", step)
	}
	for id := range leafUsers {
		if e.predCache[id] == nil {
			t.Fatalf("%s: user %s has leaves but no cached prediction", step, id)
		}
	}
	for id := range e.predCache {
		if !leafUsers[id] {
			t.Fatalf("%s: user %s has a cached prediction but no leaf", step, id)
		}
	}
}

// TestShardLoadPredictsOwnedLeafUsers: a sharded load caches predictions
// for exactly the owned users its build wrote leaves for — no user of
// another shard — and every cached row equals a full replay.
func TestShardLoadPredictsOwnedLeafUsers(t *testing.T) {
	eng := trainedEngine(t, testDataset(t), nil)
	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	for idx := range 2 {
		e, err := LoadShardFrom(bytes.NewReader(buf.Bytes()), idx, 2)
		if err != nil {
			t.Fatalf("LoadShardFrom: %v", err)
		}
		step := fmt.Sprintf("shard %d of 2", idx)
		checkLeafUsersPredicted(t, e, step)
		for id := range e.predCache {
			if !e.cfg.ownsUser(id) {
				t.Fatalf("%s: cached prediction for user %s of another shard", step, id)
			}
		}
		if own, pop := checkPredictionsReplay(t, e, step); own == 0 || pop == 0 {
			t.Fatalf("%s: %d own-model and %d population rows checked", step, own, pop)
		}
	}
}

// followUsers returns up to maxObs interactions of stream that belong to
// its first n distinct users, in stream order.
func followUsers(stream []model.Interaction, n, maxObs int) []model.Interaction {
	users := map[string]bool{}
	var out []model.Interaction
	for _, ir := range stream {
		if !users[ir.UserID] && len(users) < n {
			users[ir.UserID] = true
		}
		if users[ir.UserID] && len(out) < maxObs {
			out = append(out, ir)
		}
	}
	return out
}

// TestWarmPredictionRefreshZeroAlloc: once a user's entry and forward
// states exist, refreshing its prediction — folding a new observation,
// replaying the window after it moved, predicting both rows — allocates
// nothing.
func TestWarmPredictionRefreshZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	ds := testDataset(t)
	eng := trainedEngine(t, ds, nil)
	var user string
	for id, m := range eng.consumers {
		if m != nil && (user == "" || id < user) {
			user = id
		}
	}
	if user == "" {
		t.Fatal("no user with its own model")
	}
	cat := eng.cfg.Categories[0]
	// Pre-grow the history so appending an observation reuses its backing
	// array: the measurement is the refresh, not the slice growth.
	hist := eng.consumerObs[user]
	n := len(hist)
	grown := make([]bihmm.Obs, n, n+128)
	copy(grown, hist)
	for i := 0; i < 128; i++ {
		grown = append(grown, hist[i%n])
	}
	eng.consumerObs[user] = grown[:n]
	eng.categoryProb(user, cat, false)
	allocs := testing.AllocsPerRun(100, func() {
		n++
		eng.consumerObs[user] = grown[:n]
		eng.predCache[user].obsLen = -1
		eng.categoryProb(user, cat, true)
	})
	if allocs != 0 {
		t.Fatalf("warm prediction refresh allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkObserveBatchBiHMM prices one ObserveBatch of 64 observations on
// a trained BiHMM engine at the ytube shape (19 categories, so the
// prediction marginalises over 20 producer-state slots): profile update,
// prediction refresh and leaf rebuilds of every touched user.
func BenchmarkObserveBatchBiHMM(b *testing.B) {
	ds := testDataset(b)
	eng := trainedEngine(b, ds, nil)
	var stream []Observation
	for _, part := range ds.Partition(6)[2:] {
		for _, ir := range part {
			if v, ok := ds.Item(ir.ItemID); ok {
				stream = append(stream, Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
			}
		}
	}
	const batch = 64
	if len(stream) < batch {
		b.Fatalf("stream too short: %d observations", len(stream))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * batch) % (len(stream) - batch + 1)
		if _, err := eng.ObserveBatch(ctx, stream[off:off+batch]); err != nil {
			b.Fatal(err)
		}
	}
}
