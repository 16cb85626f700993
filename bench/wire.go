package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"ssrec/internal/core"
)

// The /v2 wire shapes the benchmark sends and reads. They are written out
// here rather than imported so that the benchmark speaks the documented
// wire, not the server's private structs.

type wireItem struct {
	ID          string   `json:"id"`
	Category    string   `json:"category"`
	Producer    string   `json:"producer"`
	Entities    []string `json:"entities"`
	Description string   `json:"description,omitempty"`
	Timestamp   int64    `json:"timestamp"`
}

type wireObservation struct {
	UserID    string   `json:"user_id"`
	Item      wireItem `json:"item"`
	Timestamp int64    `json:"timestamp"`
}

type wireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// observeLine is one NDJSON line of a /v2/observe response: a per-line
// status, or the trailing summary (status "done").
type observeLine struct {
	Status  string     `json:"status"`
	Error   *wireError `json:"error"`
	Applied int        `json:"applied"`
	Invalid int        `json:"invalid"`
	Flushed int        `json:"flushed"`
	Batches int        `json:"batches"`
}

// encodeBatch renders a micro-batch as a /v2/observe request body.
func encodeBatch(b []core.Observation) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, o := range b {
		v := o.Item
		line := wireObservation{
			UserID: o.UserID,
			Item: wireItem{ID: v.ID, Category: v.Category, Producer: v.Producer,
				Entities: v.Entities, Description: v.Description, Timestamp: v.Timestamp},
			Timestamp: o.Timestamp,
		}
		if err := enc.Encode(line); err != nil {
			return nil, fmt.Errorf("encode observation: %w", err)
		}
	}
	return buf.Bytes(), nil
}

// newHTTPClient returns a client holding one keep-alive connection, the
// single closed-loop client of the ingest workload.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// postObserve sends one /v2/observe request and reads the response to its
// summary line. ok counts the per-line "ok" statuses.
func postObserve(ctx context.Context, hc *http.Client, base string, body []byte) (sum observeLine, ok int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v2/observe", bytes.NewReader(body))
	if err != nil {
		return sum, 0, fmt.Errorf("observe request: %w", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := hc.Do(req)
	if err != nil {
		return sum, 0, fmt.Errorf("observe: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10)) // decorates the error only
		return sum, 0, fmt.Errorf("observe: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var line observeLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return sum, ok, fmt.Errorf("observe: bad response line: %w", err)
		}
		switch line.Status {
		case "ok":
			ok++
		case "done":
			sum = line
		}
	}
	if err := sc.Err(); err != nil {
		return sum, ok, fmt.Errorf("observe: read response: %w", err)
	}
	if sum.Status != "done" {
		return sum, ok, fmt.Errorf("observe: response ended without a summary")
	}
	return sum, ok, nil
}

// walStats is the part of /v2/stats the ingest workload checks.
type walStats struct {
	WAL *struct {
		Appends uint64 `json:"appends"`
		Bytes   int64  `json:"bytes"`
	} `json:"wal"`
}

func getStats(ctx context.Context, base string) (walStats, error) {
	var st walStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v2/stats", nil)
	if err != nil {
		return st, fmt.Errorf("stats request: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode stats: %w", err)
	}
	return st, nil
}

// startServer boots ssrec-server on a free loopback port and waits until
// /healthz answers.
func (e *env) startServer(ctx context.Context, name string, args ...string) (*proc, string, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	p, err := e.spawn(name, "ssrec-server", append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, "", err
	}
	base := "http://" + addr
	if err := waitReady(ctx, p, base+"/healthz"); err != nil {
		p.kill()
		return nil, "", err
	}
	return p, base, nil
}

// startShardd boots one blank ssrec-shardd and waits for its liveness
// probe; the server's snapshot handoff boots its engine.
func (e *env) startShardd(ctx context.Context, name string, index, of int) (*proc, string, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	p, err := e.spawn(name, "ssrec-shardd", "-addr", addr, "-index", fmt.Sprint(index), "-of", fmt.Sprint(of))
	if err != nil {
		return nil, "", err
	}
	if err := waitReady(ctx, p, "http://"+addr+"/shard/v1/livez"); err != nil {
		p.kill()
		return nil, "", err
	}
	return p, addr, nil
}
