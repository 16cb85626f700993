package wal

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
)

func mustOpen(t *testing.T, opt Options) *Log {
	t.Helper()
	l, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(from, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

// TestEncodeRecordBytes pins the record framing byte for byte: body
// length, CRC-32C of the body, then sequence, kind and payload, all
// little-endian. Logs written by any build must keep reading.
func TestEncodeRecordBytes(t *testing.T) {
	got := hex.EncodeToString(EncodeRecord(0x0102030405060708, KindRegister, []byte("payload")))
	if want := "100000007df0d6350807060504030201027061796c6f6164"; got != want {
		t.Fatalf("record %s, want %s", got, want)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 10; i++ {
		kind := KindObserve
		if i%2 == 1 {
			kind = KindRegister
		}
		seq, err := l.Append(kind, []byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("seq = %d, want %d", seq, want)
		}
	}
	recs := collect(t, l, 1)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || string(r.Payload) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if got := collect(t, l, 7); len(got) != 4 || got[0].Seq != 7 {
		t.Fatalf("Replay(7) = %d records, first %+v", len(got), got[0])
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: state recovers, sequences continue.
	l2 := mustOpen(t, Options{Dir: dir})
	if got := collect(t, l2, 1); len(got) != 10 {
		t.Fatalf("after reopen: %d records, want 10", len(got))
	}
	seq, err := l2.Append(KindObserve, []byte("after"))
	if err != nil || seq != 11 {
		t.Fatalf("Append after reopen = %d, %v; want 11", seq, err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(KindObserve, bytes.Repeat([]byte("x"), 40)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := l.Stats()
	if st.Segments < 10 {
		t.Fatalf("Segments = %d, want rotation (>= 10)", st.Segments)
	}
	if recs := collect(t, l, 1); len(recs) != 20 {
		t.Fatalf("replayed %d, want 20 across segments", len(recs))
	}
	l.Close()
	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	if recs := collect(t, l2, 1); len(recs) != 20 {
		t.Fatalf("after reopen: %d, want 20", len(recs))
	}
}

// TestTornWriteRecovery: a crash mid-append leaves a torn record at the
// tail. Reopen must truncate it, keep every complete record, and reuse
// the torn record's sequence for the next append (it was never acked).
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(KindObserve, []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	segPath := l.seg.Name()
	l.Close()

	full := EncodeRecord(6, KindObserve, []byte("torn-away"))
	for name, tear := range map[string][]byte{
		"half-record":   full[:len(full)/2],
		"header-only":   full[:6],
		"flipped-crc":   flipByte(full, 5),
		"flipped-body":  flipByte(full, len(full)-2),
		"insane-length": {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3},
	} {
		t.Run(name, func(t *testing.T) {
			f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tear); err != nil {
				t.Fatal(err)
			}
			f.Close()

			l2 := mustOpen(t, Options{Dir: dir})
			recs := collect(t, l2, 1)
			if len(recs) != 5 {
				t.Fatalf("recovered %d records, want 5 (torn tail dropped)", len(recs))
			}
			seq, err := l2.Append(KindObserve, []byte("resent"))
			if err != nil || seq != 6 {
				t.Fatalf("Append after torn recovery = %d, %v; want 6", seq, err)
			}
			// Remove the appended record so the next subtest starts from
			// the same 5-record base.
			l2.Close()
			b, err := os.ReadFile(segPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(segPath, int64(len(b)-len(EncodeRecord(6, KindObserve, []byte("resent"))))); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A corrupt record anywhere but the final segment's tail is damage a
// crash cannot explain: Open must refuse rather than silently skip.
func TestCorruptMiddleSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(KindObserve, bytes.Repeat([]byte("y"), 50)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("want >= 3 segments, got %d", st.Segments)
	}
	first := l.sealed[0].path
	l.Close()
	b, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 64}); err == nil {
		t.Fatal("Open accepted a corrupt middle segment")
	}
}

func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for i := 0; i < 8; i++ {
		if _, err := l.Append(KindRegister, bytes.Repeat([]byte("z"), 50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(func(w io.Writer) error {
		_, err := w.Write([]byte("snapshot-state-at-8"))
		return err
	}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st := l.Stats()
	if st.CheckpointSeq != 8 || !st.HasCheckpoint || st.Checkpoints != 1 {
		t.Fatalf("stats after checkpoint = %+v", st)
	}
	if st.Segments != 1 || st.Bytes != 0 {
		t.Fatalf("compaction left %d segments / %d bytes, want 1 empty active", st.Segments, st.Bytes)
	}
	// Delta tail after the checkpoint.
	for i := 0; i < 3; i++ {
		if _, err := l.Append(KindObserve, []byte("tail")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	rc, seq, ok, err := l2.latestCheckpoint()
	if err != nil || !ok || seq != 8 {
		t.Fatalf("latestCheckpoint = seq %d, ok %v, err %v; want 8, true, nil", seq, ok, err)
	}
	snap, _ := io.ReadAll(rc)
	rc.Close()
	if string(snap) != "snapshot-state-at-8" {
		t.Fatalf("checkpoint bytes = %q", snap)
	}
	tail := collect(t, l2, seq+1)
	if len(tail) != 3 || tail[0].Seq != 9 || tail[2].Seq != 11 {
		t.Fatalf("delta tail = %+v, want seqs 9..11", tail)
	}
	// A second checkpoint replaces the first on disk.
	if err := l2.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("v2")); err2 := err; return err2 }); err != nil {
		t.Fatal(err)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(ckpts) != 1 || !strings.HasSuffix(ckpts[0], fmt.Sprintf("%016x.ckpt", 11)) {
		t.Fatalf("checkpoints on disk = %v, want one at seq 11", ckpts)
	}
}

func TestCheckpointWriteFailureLeavesLogUsable(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if _, err := l.Append(KindObserve, []byte("a")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := l.Checkpoint(func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Checkpoint error = %v, want wrapped boom", err)
	}
	st := l.Stats()
	if st.HasCheckpoint || st.Checkpoints != 0 {
		t.Fatalf("failed checkpoint recorded: %+v", st)
	}
	if _, err := l.Append(KindObserve, []byte("b")); err != nil {
		t.Fatalf("Append after failed checkpoint: %v", err)
	}
	if recs := collect(t, l, 1); len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []Policy{PolicyBatch, PolicyInterval, PolicyOff} {
		t.Run(string(pol), func(t *testing.T) {
			l := mustOpen(t, Options{Dir: t.TempDir(), Policy: pol, SyncInterval: 5 * time.Millisecond})
			for i := 0; i < 4; i++ {
				if _, err := l.Append(KindObserve, []byte("p")); err != nil {
					t.Fatal(err)
				}
			}
			st := l.Stats()
			switch pol {
			case PolicyBatch:
				if st.Syncs < 4 {
					t.Fatalf("Syncs = %d, want >= 4 under batch policy", st.Syncs)
				}
			case PolicyInterval:
				deadline := time.Now().Add(2 * time.Second)
				for l.Stats().Syncs == 0 && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
				if l.Stats().Syncs == 0 {
					t.Fatal("interval policy never synced")
				}
			case PolicyOff:
				if st.Syncs != 0 {
					t.Fatalf("Syncs = %d, want 0 under off policy", st.Syncs)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, err := l.Append(KindObserve, nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("Append after Close = %v, want ErrClosed", err)
			}
		})
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
	if _, err := Open(Options{Dir: t.TempDir(), Policy: "sometimes"}); err == nil {
		t.Fatal("Open accepted a garbage policy")
	}
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open accepted empty Dir")
	}
}

func TestPayloadCodecsAndApply(t *testing.T) {
	items := []model.Item{
		{ID: "i1", Category: "c", Producer: "u9", Entities: []string{"e1", "e2"}, Description: "d", Timestamp: 42},
		{ID: "i2", Category: "c"},
	}
	obs := []core.Observation{
		{UserID: "u1", Item: items[0], Timestamp: 100},
		{UserID: "u2", Item: items[1], Timestamp: 101},
	}
	rp, err := encodeRegister(items)
	if err != nil {
		t.Fatal(err)
	}
	gotItems, err := decodeRegister(rp)
	if err != nil || len(gotItems) != 2 || gotItems[0].ID != "i1" || len(gotItems[0].Entities) != 2 {
		t.Fatalf("register round-trip = %+v, %v", gotItems, err)
	}
	op, err := encodeObserve(obs)
	if err != nil {
		t.Fatal(err)
	}
	gotObs, err := decodeObserve(op)
	if err != nil || len(gotObs) != 2 || gotObs[0].UserID != "u1" || gotObs[1].Item.ID != "i2" {
		t.Fatalf("observe round-trip = %+v, %v", gotObs, err)
	}

	eng := core.New(core.Config{Categories: []string{"c"}})
	if err := apply(context.Background(), Record{Seq: 1, Kind: KindRegister, Payload: rp}, eng); err != nil {
		t.Fatalf("apply register: %v", err)
	}
	if err := apply(context.Background(), Record{Seq: 2, Kind: KindObserve, Payload: op}, eng); err != nil {
		t.Fatalf("apply observe: %v", err)
	}
	if err := apply(context.Background(), Record{Seq: 3, Kind: Kind(99)}, eng); err == nil {
		t.Fatal("apply accepted unknown kind")
	}
	if err := apply(context.Background(), Record{Seq: 4, Kind: KindObserve, Payload: []byte("{")}, eng); err == nil {
		t.Fatal("apply accepted malformed observe payload")
	}
	if err := apply(context.Background(), Record{Seq: 5, Kind: KindRegister, Payload: []byte("{")}, eng); err == nil {
		t.Fatal("apply accepted malformed register payload")
	}
}

func TestAppendPayloadTooLarge(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if _, err := l.Append(KindObserve, make([]byte, maxBody)); err == nil {
		t.Fatal("Append accepted an oversized payload")
	}
}

func TestStatsAndTempCleanup(t *testing.T) {
	dir := t.TempDir()
	// Leftover temp file from a crashed checkpoint must be pruned.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-123.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Unparseable names are ignored.
	if err := os.WriteFile(filepath.Join(dir, "not-a-seq.wal"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, Options{Dir: dir})
	if _, err := os.Stat(filepath.Join(dir, "ckpt-123.tmp")); !os.IsNotExist(err) {
		t.Fatal("temp file survived Open")
	}
	st := l.Stats()
	if st.LastSeq != 0 || st.HasCheckpoint || st.Dir != dir || st.Policy != PolicyBatch {
		t.Fatalf("fresh stats = %+v", st)
	}
	if _, seq, ok, err := l.latestCheckpoint(); ok || seq != 0 || err != nil {
		t.Fatalf("latestCheckpoint on fresh log = %d, %v, %v", seq, ok, err)
	}
	if _, err := l.Append(KindObserve, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("s")); return err }); err != nil {
		t.Fatal(err)
	}
	st = l.Stats()
	if st.LastSeq != 1 || st.CheckpointSeq != 1 || st.CheckpointAgeMs < 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// After Close, a second Close is a no-op and Replay/Checkpoint refuse.
func TestClosedOperations(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if err := l.Replay(1, func(Record) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Replay after Close = %v", err)
	}
	if err := l.Checkpoint(func(io.Writer) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close = %v", err)
	}
}

func TestReplayCallbackError(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if _, err := l.Append(KindObserve, []byte("x")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("stop")
	if err := l.Replay(1, func(Record) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Replay = %v, want callback error", err)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}
