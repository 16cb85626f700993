package sigtree

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestSearchCtxNilEquivalence: a nil or never-cancelled context changes
// nothing — results stay bit-identical to Search.
func TestSearchCtxNilEquivalence(t *testing.T) {
	tqs := buildForest(t, 7, 60, 11)
	for _, k := range []int{1, 10, 50} {
		want, _ := Search(tqs, k)
		for _, ctx := range []context.Context{nil, context.Background()} {
			got, _, err := SearchCtx(ctx, tqs, k, nil)
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: ctx path diverged", k)
			}
		}
	}
}

// TestSearchCtxCancelled: a cancelled context aborts the traversal with
// context.Canceled.
func TestSearchCtxCancelled(t *testing.T) {
	tqs := buildForest(t, 7, 400, 13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SearchCtx(ctx, tqs, 10, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSearchCtxMidFlightCancel sweeps deadlines so that at least one run
// is cancelled mid-traversal rather than at the entry check: the search
// must report ctx.Err() then, and complete with results otherwise.
func TestSearchCtxMidFlightCancel(t *testing.T) {
	tqs := buildForest(t, 9, 800, 13)
	sawCancel, sawComplete := false, false
	for _, timeout := range []time.Duration{time.Nanosecond, 10 * time.Microsecond, 200 * time.Microsecond, 5 * time.Millisecond, time.Second} {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		recs, _, err := SearchCtx(ctx, tqs, 20, nil)
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("timeout %v: err = %v", timeout, err)
			}
			sawCancel = true
		} else {
			sawComplete = true
			if len(recs) == 0 {
				t.Fatalf("timeout %v: completed with no results", timeout)
			}
		}
	}
	if !sawCancel || !sawComplete {
		t.Fatalf("sweep did not cover both outcomes (cancelled=%v completed=%v)", sawCancel, sawComplete)
	}
}
