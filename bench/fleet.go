package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/server"
)

// runFleet is fleet-5k: the production read-and-write path. One client
// drives one /v2/session against ssrec-server fronting two ssrec-shardd
// processes; each event is a 64-observation batch followed by four asks
// for fresh items, each sent once the previous answer arrived. Transport
// dominates and search is small, so this is the "no change" witness for
// query-core work and the workload where codec and scatter changes show.
// The first ask of an event waits on the event's batch flush, so a
// write-path gain that costs reads shows in latency_p95_ms.
func runFleet(ctx context.Context, e *env) (*outcome, error) {
	c := generate(e.size.smallUsers, e.size.smallProducers, e.size.steps, e.seed)
	snap, err := c.writeSnapshot(e, "fleet.snap")
	if err != nil {
		return nil, err
	}
	events, err := c.events()
	if err != nil {
		return nil, err
	}
	if len(events) <= e.size.fleetWarm {
		return nil, fmt.Errorf("only %d events", len(events))
	}

	o := newOutcome()
	seen := map[string]struct{}{}
	rs := newRounds()
	var transcripts [][][]model.Recommendation // per round, the first refEvents events' answers
	for r := 1; r <= e.size.fleetRounds; r++ {
		start := time.Now()
		dep, err := e.startDeployment(ctx, snap, remoteShards)
		if err != nil {
			return nil, err
		}
		rs.setups = append(rs.setups, time.Since(start))
		rs.host.sample()
		settle()
		sr, err := dialSession(ctx, dep.base)
		if err != nil {
			return nil, err
		}
		var transcript [][]model.Recommendation
		step := func(i int, ev event) (eventResult, error) {
			res, err := sr.event(ctx, ev)
			if err != nil {
				return res, err
			}
			o.ops(1, res.check(ev, seen))
			if i < e.size.refEvents {
				transcript = append(transcript, res.answers[:]...)
			}
			return res, nil
		}
		for i, ev := range events[:e.size.fleetWarm] {
			if _, err := step(i, ev); err != nil {
				return nil, err
			}
		}

		timed := events[e.size.fleetWarm:]
		pids := dep.pids()
		cpu0, err := cpuOf(pids)
		if err != nil {
			return nil, err
		}
		seg := startSegment(e.segment(e.size.fleetRounds), cpu0)
		for i, ev := range timed {
			if seg.over(e.size.maxOps) {
				break
			}
			res, err := step(e.size.fleetWarm+i, ev)
			if err != nil {
				return nil, err
			}
			for _, d := range res.asks {
				seg.lat(d)
			}
			seg.done(1)
		}
		cpu1, err := cpuOf(pids)
		if err != nil {
			return nil, err
		}
		rs.end(seg, cpu1)
		e.logf("fleet-5k round %d: %s", r, rs.last())
		var rss float64
		for _, pid := range pids {
			m, err := peakRSS(strconv.Itoa(pid))
			if err != nil {
				return nil, err
			}
			rss += m
		}
		rs.rss = append(rs.rss, rss)
		if seg.reqs == len(timed) && e.size.maxOps == 0 {
			o.note("round %d: stream exhausted after %.2fs", r, seg.wall.Seconds())
		}
		if err := sr.close(); err != nil {
			o.gate(fmt.Errorf("round %d: close session: %w", r, err))
		}
		dep.kill()
		transcripts = append(transcripts, transcript)
	}

	// Reference: the same snapshot in-process, replaying the same
	// ObserveBatch + RecommendCtx schedule, must give every round's answers.
	eng, err := loadSnapshot(snap)
	if err != nil {
		return nil, err
	}
	ref := engineRunner(eng)
	var want [][]model.Recommendation
	for _, ev := range events[:min(e.size.refEvents, len(events))] {
		res, err := ref(ctx, ev)
		if err != nil {
			return nil, err
		}
		want = append(want, res.answers[:]...)
	}
	for r, got := range transcripts {
		compareTranscripts(o, fmt.Sprintf("fleet-5k round %d vs the in-process engine", r+1), got, want[:len(got)])
	}

	rs.report(o)
	return o, nil
}

// ---- deployments ----

type topology int

const (
	singleEngine topology = iota // ssrec-server -model
	inProcShards                 // ssrec-server -model -shards 2
	remoteShards                 // ssrec-server -model -shard-addrs over two ssrec-shardd
)

// deployment is one running ssrec-server, with its shardds if any.
type deployment struct {
	server  *proc
	shardds []*proc
	base    string
}

// startDeployment boots a serving topology from a snapshot. Session
// linger is off: every flush is a full batch or an ask's barrier, never a
// timer firing inside the timed phase.
func (e *env) startDeployment(ctx context.Context, snap string, t topology) (*deployment, error) {
	d := &deployment{}
	args := []string{"-model", snap, "-session-linger", "0"}
	switch t {
	case inProcShards:
		args = append(args, "-shards", "2")
	case remoteShards:
		var addrs []string
		for i := 0; i < 2; i++ {
			p, addr, err := e.startShardd(ctx, "shardd-"+strconv.Itoa(i), i, 2)
			if err != nil {
				d.kill()
				return nil, err
			}
			d.shardds = append(d.shardds, p)
			addrs = append(addrs, addr)
		}
		args = append(args, "-shard-addrs", strings.Join(addrs, ","))
	}
	p, base, err := e.startServer(ctx, "fleet-server", args...)
	if err != nil {
		d.kill()
		return nil, err
	}
	d.server, d.base = p, base
	return d, nil
}

func (d *deployment) kill() {
	if d.server != nil {
		d.server.kill()
	}
	for _, p := range d.shardds {
		p.kill()
	}
}

// pids lists the system under test: the server first, then the shardds.
func (d *deployment) pids() []int {
	out := []int{d.server.pid()}
	for _, p := range d.shardds {
		out = append(out, p.pid())
	}
	return out
}

func cpuOf(pids []int) (time.Duration, error) {
	var sum time.Duration
	for _, pid := range pids {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// ---- events ----

// eventResult is one event as a client saw it.
type eventResult struct {
	total   time.Duration               // first observation sent to last answer received
	asks    [asksPerEvent]time.Duration // each ask sent to its answer received
	answers [asksPerEvent][]model.Recommendation
	errs    [asksPerEvent]error
}

// check validates the event's answers; a shard_unavailable answer fails.
func (r eventResult) check(ev event, seen map[string]struct{}) error {
	for i, v := range ev.asks {
		if r.errs[i] != nil {
			return fmt.Errorf("ask %s: %w", v.ID, r.errs[i])
		}
		if err := checkAnswer(v.ID, r.answers[i], seen); err != nil {
			return err
		}
	}
	return nil
}

// eventRunner runs one event against a system and waits for its answers;
// an error means the stream itself broke.
type eventRunner func(context.Context, event) (eventResult, error)

// engineRunner runs events on an in-process engine with the schedule a
// session produces: one ObserveBatch, then one RecommendCtx per ask.
func engineRunner(eng *core.Engine) eventRunner {
	k := core.WithK(topK)
	return func(ctx context.Context, ev event) (eventResult, error) {
		var r eventResult
		start := time.Now()
		rep, err := eng.ObserveBatch(ctx, ev.obs)
		if err != nil {
			return r, fmt.Errorf("observe batch: %w", err)
		}
		if rep.Applied != len(ev.obs) {
			return r, fmt.Errorf("observe batch applied %d of %d", rep.Applied, len(ev.obs))
		}
		for i, v := range ev.asks {
			t0 := time.Now()
			res, err := eng.RecommendCtx(ctx, v, k)
			r.asks[i] = time.Since(t0)
			r.answers[i], r.errs[i] = res.Recommendations, err
		}
		r.total = time.Since(start)
		return r, nil
	}
}

// sessionRunner is one open /v2/session with its own HTTP/2 connection.
type sessionRunner struct {
	ses   *server.ClientSession
	hc    *http.Client
	k     core.Option
	bytes atomic.Int64 // read and written on the session's connection
}

func dialSession(ctx context.Context, base string) (*sessionRunner, error) {
	s := &sessionRunner{k: core.WithK(topK)}
	// Unencrypted HTTP/2 with prior knowledge, as /v2/session needs, over
	// a connection that counts its bytes.
	protocols := new(http.Protocols)
	protocols.SetUnencryptedHTTP2(true)
	var d net.Dialer
	s.hc = &http.Client{Transport: &http.Transport{
		Protocols: protocols,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, n: &s.bytes}, nil
		},
	}}
	ses, err := server.DialSession(ctx, base, server.WithDialHTTPClient(s.hc))
	if err != nil {
		s.hc.CloseIdleConnections()
		return nil, fmt.Errorf("dial session: %w", err)
	}
	s.ses = ses
	return s, nil
}

// countingConn adds the bytes read and written on a connection to n.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// close half-closes the session, waits for its summary and drops the
// connection; closing twice is harmless.
func (s *sessionRunner) close() error {
	err := s.ses.Close()
	s.hc.CloseIdleConnections()
	return err
}

// event pushes the batch, then sends each ask once the previous answer is
// in: asks after the first are the pure read path.
func (s *sessionRunner) event(ctx context.Context, ev event) (eventResult, error) {
	var r eventResult
	start := time.Now()
	for _, ob := range ev.obs {
		if err := s.ses.Push(ob); err != nil {
			return r, fmt.Errorf("push: %w", err)
		}
	}
	for i, v := range ev.asks {
		t0 := time.Now()
		if err := s.ses.Ask(v, s.k); err != nil {
			return r, fmt.Errorf("ask: %w", err)
		}
		select {
		case res, ok := <-s.ses.Results():
			if !ok {
				return r, fmt.Errorf("session ended: %v", s.ses.Err())
			}
			r.asks[i] = time.Since(t0)
			r.answers[i], r.errs[i] = res.Recommendations, res.Err
		case <-ctx.Done():
			return r, ctx.Err()
		}
	}
	r.total = time.Since(start)
	return r, nil
}
