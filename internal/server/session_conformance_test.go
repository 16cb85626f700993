// session_conformance_test.go: the WIRE column of the session conformance
// matrix. The seeded stream is replayed as /v2/session traffic — NDJSON
// commands over real loopback HTTP/2, credit flow control and all —
// through the ClientSession, and the answers must be bit-identical to the
// batch API driven at the same boundaries on an identical engine. This is
// the full-stack proof: shardtest fixture → wire client → h2c server →
// core.Session → engine.
package server

import (
	"bytes"
	"context"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/shardtest"
)

func TestSessionConformanceWire(t *testing.T) {
	fx := shardtest.Load(t)
	maxBatches := 0 // full stream
	if testing.Short() {
		maxBatches = 10
	}

	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	want := fx.ReplaySeq(t, reference, maxBatches)

	serving, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot serving engine: %v", err)
	}
	s := New(serving)
	// Align the wire session's flush points with the reference schedule:
	// micro-batch = ReplayBatch, no linger timer, and a window generous
	// enough that flow control never changes the command order (it cannot
	// — credit only delays, but keeping the replay un-stalled is faster).
	s.BatchSize = shardtest.ReplayBatch
	s.SessionLinger = -1
	s.SessionCredit = 4 * shardtest.ReplayBatch
	addr := startH2C(t, s)

	ses, err := DialSession(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	got := fx.ReplaySession(t, ses, maxBatches)
	shardtest.DiffResults(t, want, got, "session/wire")

	// The terminal summary must account for the whole schedule.
	st, ok := ses.Stats()
	if !ok {
		t.Fatal("no terminal summary")
	}
	obs := len(fx.Obs)
	batches := (obs + shardtest.ReplayBatch - 1) / shardtest.ReplayBatch
	if maxBatches > 0 {
		batches = maxBatches
		obs = maxBatches * shardtest.ReplayBatch
	}
	if st.Pushed != uint64(obs) || st.Admitted != uint64(obs) || st.Rejected != 0 {
		t.Errorf("wire summary %+v, want %d pushed+admitted", st, obs)
	}
	if st.Asked != uint64(batches*shardtest.ReplayQueryLen) || st.Answered != st.Asked {
		t.Errorf("wire summary %+v, want %d asked+answered", st, batches*shardtest.ReplayQueryLen)
	}
}
