// wal_test.go covers the durable-ingest surface of the shard RPC layer:
// the delta catch-up replay RPC (POST /shard/v1/replay) must apply
// missed batches exactly like the live write path and mint a fresh boot
// epoch; a Server with an attached WAL must recover its exact pre-stop
// state via BootFromWAL; and the crash-recovery acceptance gate runs the
// REAL ssrec-shardd binary, kill -9s it at a micro-batch boundary
// mid-ingest, restarts it with the same -wal-dir and requires the
// stitched transcript to be bit-identical to an uninterrupted single
// engine — with zero manual recovery steps.
package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/shardtest"
	"ssrec/internal/sigtree"
	"ssrec/internal/wal"
)

// TestReplayRPCRoundTrip: the delta catch-up RPC refuses a blank shard
// with the typed unavailable error (steering the supervisor to the
// snapshot path), and on a trained shard applies the streamed batches
// exactly like the live write path — a sibling fed the same data through
// RegisterItems/ObserveBatch answers identically — while minting a fresh
// boot epoch as proof of reseed.
func TestReplayRPCRoundTrip(t *testing.T) {
	ctx := context.Background()
	tc := buildTinyCorpus()
	snap := tinySnapshot(t)

	blank := NewClient(startLoopback(t, 0, 1).addr, 0, 1)
	defer blank.Close()
	if err := blank.Replay(ctx, []shard.ReplayBatch{{Seq: 1}}); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("replay against a blank shard: err = %v, want ErrShardUnavailable", err)
	}

	// Replayed shard vs. a control sibling driven through the live write
	// path: both boot from the same snapshot and ingest the same data.
	cR := NewClient(startLoopback(t, 0, 1).addr, 0, 1)
	defer cR.Close()
	cW := NewClient(startLoopback(t, 0, 1).addr, 0, 1)
	defer cW.Close()
	for _, c := range []*Client{cR, cW} {
		if err := c.Handoff(ctx, snap); err != nil {
			t.Fatalf("handoff: %v", err)
		}
	}
	epoch0, err := cR.Ping(ctx)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}

	items := []model.Item{tc.fresh[0]}
	obs := []core.Observation{
		{UserID: "user1", Item: tc.fresh[0], Timestamp: 900},
		{UserID: "user2", Item: tc.items[0], Timestamp: 901},
	}
	if err := cR.Replay(ctx, []shard.ReplayBatch{{Seq: 7, Items: items}, {Seq: 8, Obs: obs}}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if _, err := cW.RegisterItems(ctx, items); err != nil {
		t.Fatalf("control register: %v", err)
	}
	if rep, err := cW.ObserveBatch(ctx, obs); err != nil || rep.Applied != len(obs) {
		t.Fatalf("control observe: rep=%+v err=%v", rep, err)
	}

	epoch1, err := cR.Ping(ctx)
	if err != nil {
		t.Fatalf("ping after replay: %v", err)
	}
	if epoch1 == epoch0 {
		t.Fatalf("replay did not mint a fresh boot epoch (still %q); the supervisor's proof-of-reseed needs one", epoch0)
	}

	o := core.ResolveOptions(core.WithK(5))
	want, err := cW.Recommend(ctx, tc.query, o, nil)
	if err != nil {
		t.Fatalf("control recommend: %v", err)
	}
	got, err := cR.Recommend(ctx, tc.query, o, nil)
	if err != nil {
		t.Fatalf("replayed recommend: %v", err)
	}
	want.Stats, got.Stats = sigtree.SearchStats{}, sigtree.SearchStats{}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replayed shard diverged from the live write path:\n  want: %+v\n  got:  %+v", want, got)
	}
}

// walLoopback serves shard idx/of with an attached WAL on an ephemeral
// loopback port, without booting it.
func walLoopback(t *testing.T, dir string, idx, of int) (*loopback, *wal.Log) {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.PolicyBatch})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	t.Cleanup(func() { l.Close() }) //nolint:errcheck
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv, err := NewServer(idx, of)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.WAL = l
	hs := srv.NewHTTPServer(ln.Addr().String())
	go hs.Serve(ln) //nolint:errcheck // closed by Cleanup
	lb := &loopback{srv: srv, hs: hs, addr: ln.Addr().String()}
	t.Cleanup(func() { hs.Close() })
	return lb, l
}

// TestWALServerRecovery: a Server with an attached WAL checkpoints the
// snapshot handoff, logs every admitted write, and a NEW Server pointed
// at the same directory recovers the exact serving state via BootFromWAL
// — checkpoint plus delta-tail replay, no handoff involved.
func TestWALServerRecovery(t *testing.T) {
	ctx := context.Background()
	tc := buildTinyCorpus()
	dir := t.TempDir()

	lb1, wal1 := walLoopback(t, dir, 0, 1)
	c1 := NewClient(lb1.addr, 0, 1)
	defer c1.Close()
	if err := c1.Handoff(ctx, tinySnapshot(t)); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if st := wal1.Stats(); !st.HasCheckpoint {
		t.Fatalf("handoff did not anchor a checkpoint: %+v", st)
	}
	if _, err := c1.RegisterItems(ctx, []model.Item{tc.fresh[0]}); err != nil {
		t.Fatalf("register: %v", err)
	}
	obs := []core.Observation{
		{UserID: "user1", Item: tc.fresh[0], Timestamp: 900},
		{UserID: "user3", Item: tc.items[1], Timestamp: 901},
	}
	if rep, err := c1.ObserveBatch(ctx, obs); err != nil || rep.Applied != len(obs) {
		t.Fatalf("observe: rep=%+v err=%v", rep, err)
	}
	o := core.ResolveOptions(core.WithK(5))
	want, err := c1.Recommend(ctx, tc.query, o, nil)
	if err != nil {
		t.Fatalf("pre-stop recommend: %v", err)
	}

	// Stop WITHOUT a shutdown checkpoint: recovery must replay the two
	// logged write batches on top of the handoff checkpoint.
	lb1.hs.Close()
	if err := wal1.Close(); err != nil {
		t.Fatalf("close wal: %v", err)
	}

	lb2, wal2 := walLoopback(t, dir, 0, 1)
	recovered, replayed, err := lb2.srv.BootFromWAL(ctx)
	if err != nil {
		t.Fatalf("BootFromWAL: %v", err)
	}
	if !recovered || replayed != 2 {
		t.Fatalf("recovered=%v replayed=%d, want true/2 (register + observe tail)", recovered, replayed)
	}
	c2 := NewClient(lb2.addr, 0, 1)
	defer c2.Close()
	got, err := c2.Recommend(ctx, tc.query, o, nil)
	if err != nil {
		t.Fatalf("post-recovery recommend: %v", err)
	}
	want.Stats, got.Stats = sigtree.SearchStats{}, sigtree.SearchStats{}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered state diverged:\n  want: %+v\n  got:  %+v", want, got)
	}

	// The per-shard stats RPC surfaces the log's state.
	st := c2.Stats()
	if st.WAL == nil || !st.WAL.HasCheckpoint || st.WAL.LastSeq < st.WAL.CheckpointSeq {
		t.Fatalf("stats RPC wal block = %+v, want checkpoint + tail watermarks", st.WAL)
	}
	_ = wal2
}

// restartWAL stops a WAL-backed loopback shard without a shutdown
// checkpoint and recovers a new one from the same directory.
func restartWAL(t *testing.T, lb *loopback, l *wal.Log, dir string) (*loopback, *wal.Log, int) {
	t.Helper()
	lb.hs.Close()
	if err := l.Close(); err != nil {
		t.Fatalf("close wal: %v", err)
	}
	lb2, l2 := walLoopback(t, dir, lb.srv.idx, lb.srv.of)
	recovered, replayed, err := lb2.srv.BootFromWAL(context.Background())
	if err != nil || !recovered {
		t.Fatalf("BootFromWAL: recovered=%v err=%v", recovered, err)
	}
	return lb2, l2, replayed
}

// TestHandoffOntoIdleWALAnchorsCheckpoint: a snapshot handoff rebases the
// shard, so it must anchor a checkpoint even when nothing was logged since
// the previous one. Two handoffs with no write between them, then a
// restart: recovery must serve the SECOND snapshot.
func TestHandoffOntoIdleWALAnchorsCheckpoint(t *testing.T) {
	ctx := context.Background()
	tc := buildTinyCorpus()
	dir := t.TempDir()
	snapA := tinySnapshot(t)

	// Snapshot B is A plus a batch, so the two baselines rank differently.
	engB, err := core.LoadFrom(bytes.NewReader(snapA))
	if err != nil {
		t.Fatalf("load A: %v", err)
	}
	var obs []core.Observation
	for u := 0; u < 8; u++ {
		obs = append(obs, core.Observation{UserID: fmt.Sprintf("user%d", u), Item: tc.fresh[u%3], Timestamp: int64(900 + u)})
	}
	if _, err := engB.ObserveBatch(ctx, obs); err != nil {
		t.Fatalf("observe B: %v", err)
	}
	var snapB bytes.Buffer
	if err := engB.SaveTo(&snapB); err != nil {
		t.Fatalf("save B: %v", err)
	}

	lb, l := walLoopback(t, dir, 0, 1)
	c := NewClient(lb.addr, 0, 1)
	defer c.Close()
	o := core.ResolveOptions(core.WithK(5))
	recommend := func(c *Client) core.Result {
		t.Helper()
		res, err := c.Recommend(ctx, tc.query, o, nil)
		if err != nil {
			t.Fatalf("recommend: %v", err)
		}
		res.Stats = sigtree.SearchStats{}
		return res
	}
	if err := c.Handoff(ctx, snapA); err != nil {
		t.Fatalf("handoff A: %v", err)
	}
	answerA := recommend(c)
	if err := c.Handoff(ctx, snapB.Bytes()); err != nil {
		t.Fatalf("handoff B: %v", err)
	}
	answerB := recommend(c)
	if reflect.DeepEqual(answerA, answerB) {
		t.Fatal("snapshots A and B answer alike; the test cannot tell them apart")
	}

	lb2, _, replayed := restartWAL(t, lb, l, dir)
	if replayed != 0 {
		t.Fatalf("replayed %d records, want 0 (no write after the handoffs)", replayed)
	}
	c2 := NewClient(lb2.addr, 0, 1)
	defer c2.Close()
	if got := recommend(c2); !reflect.DeepEqual(got, answerB) {
		t.Fatalf("recovered shard serves a stale baseline:\n  got:  %+v\n  want: %+v (snapshot B)\n  A:    %+v", got, answerB, answerA)
	}
}

// TestWALRegisterLogsOnlyChanges: a register batch is logged only when
// it changes the engine, so a repeated warm registration costs no record.
func TestWALRegisterLogsOnlyChanges(t *testing.T) {
	ctx := context.Background()
	tc := buildTinyCorpus()
	lb, l := walLoopback(t, t.TempDir(), 0, 1)
	c := NewClient(lb.addr, 0, 1)
	defer c.Close()
	if err := c.Handoff(ctx, tinySnapshot(t)); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	items := []model.Item{tc.fresh[0], tc.fresh[1]}
	for i, want := range []bool{true, false} {
		changed, err := c.RegisterItems(ctx, items)
		if err != nil || changed != want {
			t.Fatalf("register #%d: changed=%v err=%v, want %v", i+1, changed, err, want)
		}
	}
	if got := l.Stats().Appends; got != 1 {
		t.Fatalf("two identical registrations logged %d records, want 1", got)
	}
}

// TestWALRefusalLeavesEngineUnchanged: a shard whose log cannot take a
// batch answers 5xx and applies nothing, so the router counts a missed
// write and the engine still matches its log.
func TestWALRefusalLeavesEngineUnchanged(t *testing.T) {
	ctx := context.Background()
	tc := buildTinyCorpus()
	lb, l := walLoopback(t, t.TempDir(), 0, 1)
	c := NewClient(lb.addr, 0, 1)
	defer c.Close()
	if err := c.Handoff(ctx, tinySnapshot(t)); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	o := core.ResolveOptions(core.WithK(8))
	before, err := c.Recommend(ctx, tc.query, o, nil)
	if err != nil {
		t.Fatalf("recommend: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close wal: %v", err)
	}

	cold := []model.Item{tc.fresh[2]}
	if _, err := c.RegisterItems(ctx, cold); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("register on a closed log: err = %v, want a 5xx (ErrShardUnavailable)", err)
	}
	var obs []core.Observation
	for u := 0; u < 8; u++ {
		obs = append(obs, core.Observation{UserID: fmt.Sprintf("user%d", u), Item: tc.fresh[3], Timestamp: int64(900 + u)})
	}
	if _, err := c.ObserveBatch(ctx, obs); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("observe on a closed log: err = %v, want a 5xx (ErrShardUnavailable)", err)
	}
	eng := lb.srv.boot.Load().local.Engine()
	if !eng.NeedsRegistration(append(cold, tc.fresh[3])) {
		t.Fatal("items registered although their log append failed")
	}
	after, err := c.Recommend(ctx, tc.query, o, nil)
	if err != nil {
		t.Fatalf("recommend: %v", err)
	}
	before.Stats, after.Stats = sigtree.SearchStats{}, sigtree.SearchStats{}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("engine changed although its log refused the writes:\n  before: %+v\n  after:  %+v", before, after)
	}
}

// TestGoldenShardStatsWALBlock pins the wal block of /shard/v1/stats:
// key order and every counter, with the directory and checkpoint age
// canonicalized. Regenerate after an intentional change with -update.
func TestGoldenShardStatsWALBlock(t *testing.T) {
	ctx := context.Background()
	tc := buildTinyCorpus()
	lb, _ := walLoopback(t, t.TempDir(), 0, 1)
	c := NewClient(lb.addr, 0, 1)
	defer c.Close()
	if err := c.Handoff(ctx, tinySnapshot(t)); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if _, err := c.RegisterItems(ctx, []model.Item{tc.fresh[0]}); err != nil {
		t.Fatalf("register: %v", err)
	}
	obs := []core.Observation{
		{UserID: "user1", Item: tc.fresh[0], Timestamp: 900},
		{UserID: "user3", Item: tc.items[1], Timestamp: 901},
	}
	if _, err := c.ObserveBatch(ctx, obs); err != nil {
		t.Fatalf("observe: %v", err)
	}
	resp, err := http.Get("http://" + lb.addr + pathStats)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("stats body: %v", err)
	}
	checkWALGolden(t, "shard_stats_wal_block.golden", body)
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

var (
	walDirRe = regexp.MustCompile(`"dir":"[^"]*"`)
	walAgeRe = regexp.MustCompile(`"checkpoint_age_ms":[-+.0-9eE]+`)
)

// checkWALGolden compares the wal block of a stats payload, indented and
// with its directory and checkpoint age canonicalized, against a golden
// file in testdata/.
func checkWALGolden(t *testing.T, name string, payload []byte) {
	t.Helper()
	var v struct {
		WAL json.RawMessage `json:"wal"`
	}
	if err := json.Unmarshal(payload, &v); err != nil || v.WAL == nil {
		t.Fatalf("no wal block in %s (%v)", payload, err)
	}
	block := walDirRe.ReplaceAll(v.WAL, []byte(`"dir":"<dir>"`))
	block = walAgeRe.ReplaceAll(block, []byte(`"checkpoint_age_ms":"<ms>"`))
	var got bytes.Buffer
	if err := json.Indent(&got, block, "", "  "); err != nil {
		t.Fatal(err)
	}
	got.WriteByte('\n')
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("wal block drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got.Bytes(), want)
	}
}

// buildShardd compiles the real ssrec-shardd binary into a temp dir.
func buildShardd(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "ssrec-shardd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ssrec-shardd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build ssrec-shardd: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves an ephemeral loopback port and releases it for a
// child process to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startSharddProc launches one durable shardd daemon; its log streams to
// logPath (appended across restarts so the recovery log lines survive).
func startSharddProc(t *testing.T, bin, addr string, idx int, walDir, logPath string) *exec.Cmd {
	t.Helper()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin,
		"-addr", addr, "-index", strconv.Itoa(idx), "-of", "2",
		"-wal-dir", walDir, "-wal-fsync", "batch", "-wal-checkpoint", "0")
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatalf("start shardd %d: %v", idx, err)
	}
	logf.Close() // the child holds its own descriptor
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		}
	})
	return cmd
}

// waitHTTP polls path on addr until it answers 200, failing fast if the
// daemon process exits first.
func waitHTTP(t *testing.T, cmd *exec.Cmd, addr, path, logPath string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get("http://" + addr + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			logTail, _ := os.ReadFile(logPath)
			t.Fatalf("shardd at %s never answered 200 on %s (process state %v); log:\n%s",
				addr, path, cmd.ProcessState, logTail)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCrashRecoveryKill9 is the tentpole acceptance gate: two REAL
// ssrec-shardd daemons run with -wal-dir, one is SIGKILLed at a
// micro-batch boundary mid-ingest and restarted with nothing but the
// same flags — it must recover from its latest checkpoint (anchored by
// the boot handoff) plus the logged delta tail, and the stitched
// transcript (batches before the kill + batches after the restart) must
// be bit-identical to an uninterrupted single reference engine. No
// snapshot re-handoff, no manual steps. When SSREC_WAL_STATS names a
// file, the final per-shard WAL stats land there as a CI artifact.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and drives real shardd processes; skipped in -short")
	}
	ctx := context.Background()
	bin := buildShardd(t)
	fx := shardtest.Load(t)
	tmp := t.TempDir()

	reference, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	want := fx.Replay(t, reference, 0)

	const n = 2
	addrs := make([]string, n)
	walDirs := make([]string, n)
	logPaths := make([]string, n)
	procs := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		addrs[i] = freeAddr(t)
		walDirs[i] = filepath.Join(tmp, fmt.Sprintf("wal%d", i))
		logPaths[i] = filepath.Join(tmp, fmt.Sprintf("shardd%d.log", i))
		procs[i] = startSharddProc(t, bin, addrs[i], i, walDirs[i], logPaths[i])
		waitHTTP(t, procs[i], addrs[i], "/shard/v1/livez", logPaths[i], 30*time.Second)
	}

	r := remoteRouter(t, addrs, fx.Snapshot) // boot handoff anchors each shard's first checkpoint

	got := &shardtest.Transcript{}
	replayRange := func(from, to int) {
		t.Helper()
		for b := from; b < to; b++ {
			lo := b * shardtest.ReplayBatch
			hi := min(lo+shardtest.ReplayBatch, len(fx.Obs))
			rep, err := r.ObserveBatch(ctx, fx.Obs[lo:hi])
			if err != nil {
				t.Fatalf("batch %d: ObserveBatch: %v", b, err)
			}
			rep.Errors = nil
			got.Reports = append(got.Reports, rep)
			results, err := r.RecommendBatch(ctx, shardtest.QueryWindow(fx.Queries, b), core.WithK(shardtest.ReplayK))
			if err != nil {
				t.Fatalf("batch %d: RecommendBatch: %v", b, err)
			}
			for i := range results {
				results[i].Stats = sigtree.SearchStats{}
			}
			got.Results = append(got.Results, results)
		}
	}

	total := (len(fx.Obs) + shardtest.ReplayBatch - 1) / shardtest.ReplayBatch
	cut := total / 2
	replayRange(0, cut)

	// kill -9 shard 1 at the batch boundary: every acked batch is durable
	// under -wal-fsync=batch, so recovery owes exactly batches [0, cut).
	if err := procs[1].Process.Kill(); err != nil {
		t.Fatalf("kill shardd 1: %v", err)
	}
	procs[1].Wait() //nolint:errcheck // SIGKILL makes a non-nil exit inevitable
	t.Logf("shard 1 SIGKILLed after batch %d/%d; restarting with the same -wal-dir", cut, total)

	procs[1] = startSharddProc(t, bin, addrs[1], 1, walDirs[1], logPaths[1])
	// Readiness IS the recovery proof: a blank restart would answer 503
	// until a snapshot handoff, and none is ever sent.
	waitHTTP(t, procs[1], addrs[1], "/shard/v1/readyz", logPaths[1], 60*time.Second)

	replayRange(cut, total)
	shardtest.Diff(t, want, got, "kill -9 stitched transcript")

	// The recovered shard must be running on checkpoint + replayed tail,
	// not a fresh handoff.
	c := NewClient(addrs[1], 1, n)
	defer c.Close()
	st := c.Stats()
	if st.WAL == nil || !st.WAL.HasCheckpoint || st.WAL.LastSeq <= st.WAL.CheckpointSeq {
		t.Fatalf("recovered shard wal stats = %+v, want handoff checkpoint + logged tail", st.WAL)
	}

	if artifact := os.Getenv("SSREC_WAL_STATS"); artifact != "" {
		shards := make([]json.RawMessage, 0, n)
		for _, addr := range addrs {
			resp, err := http.Get("http://" + addr + "/shard/v1/stats")
			if err != nil {
				t.Fatalf("stats artifact fetch: %v", err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("stats artifact read: %v", err)
			}
			shards = append(shards, body)
		}
		payload, err := json.MarshalIndent(map[string]any{
			"test":       "TestCrashRecoveryKill9",
			"cut_batch":  cut,
			"batches":    total,
			"fsync":      "batch",
			"shards":     shards,
			"recovered":  1,
			"transcript": "bit-identical",
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifact, payload, 0o644); err != nil {
			t.Fatalf("write wal stats artifact: %v", err)
		}
		t.Logf("wal stats artifact written to %s", artifact)
	}
}
