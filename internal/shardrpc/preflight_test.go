package shardrpc

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
)

// blackhole accepts connections on an ephemeral loopback port and never
// answers on them, as a frozen host does, and returns its address.
func blackhole(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	return ln.Addr().String()
}

// TestPreflightSilentShardExcluded: a shardd that never answers the codec
// check is unavailable, not a refusal. The write excludes it and applies
// on its siblings, in a fleet of slots and inside a replica set alike;
// the silent members are checked in parallel, and the next write does
// not wait on them again. A caller that gives up during the check gets
// its own error back: nothing is written and nothing is excluded.
func TestPreflightSilentShardExcluded(t *testing.T) {
	tc := buildTinyCorpus()
	items := []model.Item{tc.fresh[6], tc.fresh[7]}
	users := []string{"user0", "user1", "user2"}
	observe := func(i int) []core.Observation {
		v := tc.fresh[6+i]
		var batch []core.Observation
		for j, u := range users {
			batch = append(batch, core.Observation{UserID: u, Item: v, Timestamp: v.Timestamp + int64(j)})
		}
		return batch
	}
	snap := tinySnapshot(t)

	// fleet builds a router whose slot 0 holds a live shardd and whose
	// silent members are slots 1 and 2 or, with replicas set, slot 0's
	// second replica beside a live slot 1. It returns the live slot 0
	// shardd's engine.
	fleet := func(t *testing.T, replicas bool) (*shard.Router, *core.Engine) {
		of := 3
		if replicas {
			of = 2
		}
		lb := startLoopback(t, 0, of)
		live := NewClient(lb.addr, 0, of)
		t.Cleanup(live.Close)
		if err := live.Handoff(context.Background(), snap); err != nil {
			t.Fatalf("handoff: %v", err)
		}
		var r *shard.Router
		var err error
		if replicas {
			silent := NewClient(blackhole(t), 0, 2)
			t.Cleanup(silent.Close)
			rs, rerr := shard.NewReplicaSet(0, live, silent)
			if rerr != nil {
				t.Fatal(rerr)
			}
			other := NewClient(startLoopback(t, 1, 2).addr, 1, 2)
			t.Cleanup(other.Close)
			if err := other.Handoff(context.Background(), snap); err != nil {
				t.Fatalf("handoff: %v", err)
			}
			r, err = shard.NewRouter(rs, other)
		} else {
			s1, s2 := NewClient(blackhole(t), 1, 3), NewClient(blackhole(t), 2, 3)
			t.Cleanup(s1.Close)
			t.Cleanup(s2.Close)
			r, err = shard.NewRouter(live, s1, s2)
		}
		if err != nil {
			t.Fatal(err)
		}
		return r, lb.srv.boot.Load().local.Engine()
	}

	t.Run("cancelled", func(t *testing.T) {
		t.Parallel()
		r, eng := fleet(t, false)
		before := engineState(eng, items, users)
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := r.ObserveBatch(ctx, observe(0))
		if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, shard.ErrShardUnavailable) {
			t.Fatalf("observe cancelled during the check: err = %v, want the caller's deadline", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("the cancelled write took %v", d)
		}
		if after := engineState(eng, items, users); after != before {
			t.Fatalf("a cancelled check let the write land:\n%s\n%s", before, after)
		}
		ctx, cancel = context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		start = time.Now()
		res, err := r.RecommendCtx(ctx, items[1], core.WithK(3))
		if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, shard.ErrShardUnavailable) || len(res.Recommendations) != 0 {
			t.Fatalf("ask cancelled during the check: err = %v with %d recommendations, want the caller's deadline and none",
				err, len(res.Recommendations))
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("the cancelled ask took %v", d)
		}
		if after := engineState(eng, items, users); after != before {
			t.Fatalf("a cancelled check let the ask register its item:\n%s\n%s", before, after)
		}
		if down := r.Down(); len(down) != 0 {
			t.Fatalf("a cancelled check excluded shards %v", down)
		}
	})

	for _, topo := range []string{"slots", "replicas"} {
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			r, eng := fleet(t, topo == "replicas")
			for i := range 2 {
				before := engineState(eng, items, users)
				start := time.Now()
				rep, err := r.ObserveBatch(context.Background(), observe(i))
				took := time.Since(start)
				if topo == "slots" && !errors.Is(err, shard.ErrShardUnavailable) ||
					topo == "replicas" && err != nil {
					t.Fatalf("write %d: err = %v", i, err)
				}
				if rep.Applied != len(users) {
					t.Fatalf("write %d applied %d observations, want %d", i, rep.Applied, len(users))
				}
				if after := engineState(eng, items, users); after == before {
					t.Fatalf("write %d did not land on the live shardd: %s", i, after)
				}
				if i == 0 && took > statsTimeout+statsTimeout/2 {
					t.Fatalf("the first write took %v: the silent shardds were checked one after another", took)
				}
				if i == 1 && took > time.Second {
					t.Fatalf("the write after the exclusion waited %v on a silent shardd", took)
				}
			}
			want := []int{1, 2}
			if topo == "replicas" {
				want = nil // the slot keeps serving from its live replica
			}
			if down := r.Down(); !slices.Equal(down, want) {
				t.Fatalf("excluded shards %v, want %v", down, want)
			}
		})
	}
}
