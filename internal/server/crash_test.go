package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/shardtest"
)

// startServerProc launches the ssrec-server binary and waits until it
// answers /healthz on addr; its log is appended to logPath so the lines
// of both boots survive.
func startServerProc(t *testing.T, bin, addr, logPath string, args ...string) *exec.Cmd {
	t.Helper()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatalf("start ssrec-server: %v", err)
	}
	logf.Close() // the child holds its own descriptor
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		}
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			tail, _ := os.ReadFile(logPath)
			t.Fatalf("ssrec-server never answered /healthz; log:\n%s", tail)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestServerCrashRecoveryKill9 runs the REAL ssrec-server with -wal-dir:
// boot from -model, stream /v2/observe batches and cold /v2/recommend
// asks, SIGKILL it at a batch boundary and restart it with the same
// flags. The restarted server must recover its boot checkpoint plus the
// logged tail (not re-boot from -model), and every response of the
// stitched run must be byte-identical to an in-process server over an
// engine that replays the same requests uninterrupted.
func TestServerCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and drives a real ssrec-server process; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	fx := shardtest.Load(t)
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "ssrec-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ssrec-server")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build ssrec-server: %v\n%s", err, out)
	}
	modelPath := filepath.Join(tmp, "model.bin")
	if err := os.WriteFile(modelPath, fx.Snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	logPath := filepath.Join(tmp, "server.log")
	args := []string{"-addr", addr, "-model", modelPath,
		"-wal-dir", filepath.Join(tmp, "wal"), "-wal-fsync", "batch", "-wal-checkpoint", "0"}

	ref, err := core.LoadFrom(bytes.NewReader(fx.Snapshot))
	if err != nil {
		t.Fatalf("boot reference: %v", err)
	}
	refHandler := New(ref).Handler()

	// exchange sends one request to the live server and to the reference
	// and requires byte-identical responses.
	exchange := func(b int, path string, body []byte) {
		t.Helper()
		resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("batch %d: %s: %v", b, path, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %s: status %d, err %v: %s", b, path, resp.StatusCode, err, got)
		}
		rr := httptest.NewRecorder()
		refHandler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if !bytes.Equal(got, rr.Body.Bytes()) {
			t.Fatalf("batch %d: %s diverged from the reference replay:\n got: %s\nwant: %s", b, path, got, rr.Body.Bytes())
		}
	}
	replayRange := func(from, to int) {
		t.Helper()
		for b := from; b < to; b++ {
			var obs bytes.Buffer
			for _, o := range fx.Obs[b*shardtest.ReplayBatch : min((b+1)*shardtest.ReplayBatch, len(fx.Obs))] {
				line, _ := json.Marshal(map[string]any{"user_id": o.UserID, "item": itemBody(o.Item), "timestamp": o.Timestamp})
				obs.Write(append(line, '\n'))
			}
			exchange(b, "/v2/observe", obs.Bytes())
			var items []map[string]any
			for _, v := range shardtest.QueryWindow(fx.Queries, b) {
				items = append(items, itemBody(v))
			}
			ask, _ := json.Marshal(map[string]any{"items": items, "k": shardtest.ReplayK})
			exchange(b, "/v2/recommend", ask)
		}
	}

	total := (len(fx.Obs) + shardtest.ReplayBatch - 1) / shardtest.ReplayBatch
	cut := total / 2
	proc := startServerProc(t, bin, addr, logPath, args...)
	replayRange(0, cut)

	// Every acked request is durable under -wal-fsync=batch, so recovery
	// owes exactly the batches before the cut.
	if err := proc.Process.Kill(); err != nil {
		t.Fatalf("kill ssrec-server: %v", err)
	}
	proc.Wait() //nolint:errcheck // SIGKILL makes a non-nil exit inevitable
	t.Logf("ssrec-server SIGKILLed after batch %d/%d; restarting with the same flags", cut, total)
	startServerProc(t, bin, addr, logPath, args...)
	logText, _ := os.ReadFile(logPath)
	if !strings.Contains(string(logText), "engine recovered from wal") {
		t.Fatalf("restart did not recover from the wal; log:\n%s", logText)
	}
	replayRange(cut, total)
	t.Logf("stitched run of %d batches (%d observations) byte-identical to the reference", total, len(fx.Obs))
}
