package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// A run of an end-to-end workload is a few rounds. Each round sets the
// system under test up afresh from the same snapshot, warms it with
// untimed operations and then times one segment of the stream; every round
// replays the same stream prefix. On a shared host the speed of the same
// code drifts by tens of per cent over seconds to minutes, so every
// end-to-end metric is the median over the rounds of that round's value,
// and every time in it is scaled by the host's slowdown during that round
// (see hostprobe.go): a slow spell that covers fewer than half of the
// rounds does not move a metric, and one that covers the run moves it only
// as far as the probe fails to track it.

// rounds collects the rounds of one run. Round i's values are raw; slow[i]
// is the host's slowdown over that round, from probe samples taken between
// its set-up and its warm-up and after its segment.
type rounds struct {
	host    *hostProbe
	slow    []float64
	setups  []time.Duration
	rates   []float64 // operations per second, per round
	p50     []float64 // latency quantiles in ms, per round
	p95     []float64
	cpu     []float64 // CPU microseconds per operation, per round
	rss     []float64 // peak RSS in MB, per round
	samples int       // latency samples over all rounds
	steal   int64
}

func newRounds() *rounds { return &rounds{host: newHostProbe()} }

// segment is the timed phase of one round.
type segment struct {
	start, deadline time.Time
	cpu0            time.Duration
	steal0          int64
	lats            []time.Duration
	reqs, ops       int
	wall            time.Duration
}

// segment returns the length of one round's timed phase: --seconds is
// shared by the rounds.
func (e *env) segment(n int) time.Duration { return e.seconds / time.Duration(n) }

// startSegment starts a timed segment of length d; cpu is the system
// under test's CPU time so far.
func startSegment(d, cpu time.Duration) *segment {
	s := &segment{cpu0: cpu, steal0: readSteal()}
	s.start = time.Now()
	s.deadline = s.start.Add(d)
	return s
}

// over reports whether the segment has run its time, or its maxOps
// requests when maxOps > 0.
func (s *segment) over(maxOps int) bool {
	return time.Now().After(s.deadline) || (maxOps > 0 && s.reqs >= maxOps)
}

// lat records one latency sample.
func (s *segment) lat(d time.Duration) { s.lats = append(s.lats, d) }

// done records one completed request worth ops operations.
func (s *segment) done(ops int) { s.reqs, s.ops = s.reqs+1, s.ops+ops }

// end closes the segment; cpu is the system under test's CPU time now.
func (rs *rounds) end(s *segment, cpu time.Duration) {
	s.wall = time.Since(s.start)
	rs.steal += readSteal() - s.steal0
	rs.host.sample()
	rs.slow = append(rs.slow, rs.host.slowdown())
	rs.rates = append(rs.rates, float64(s.ops)/s.wall.Seconds())
	rs.cpu = append(rs.cpu, float64((cpu-s.cpu0).Microseconds())/float64(s.ops))
	rs.p50 = append(rs.p50, quantile(s.lats, 0.50))
	rs.p95 = append(rs.p95, quantile(s.lats, 0.95))
	rs.samples += len(s.lats)
}

// last describes the latest round, for progress logs.
func (rs *rounds) last() string {
	n := len(rs.rates) - 1
	return fmt.Sprintf("set-up %.2fs, %.4g op/s, p50 %.3gms, host slowdown %.3f",
		rs.setups[n].Seconds(), rs.rates[n], rs.p50[n], rs.slow[n])
}

// report sets the end-to-end metrics: per round, a time is divided by the
// round's slowdown and a rate multiplied by it, then the median over the
// rounds is taken. The unscaled medians and the slowdown go to the counts.
func (rs *rounds) report(o *outcome) {
	setups := make([]float64, len(rs.setups))
	for i, d := range rs.setups {
		setups[i] = d.Seconds()
	}
	for _, m := range []struct {
		name string
		raw  []float64
		rate bool
	}{
		{"setup_s", setups, false},
		{"ops_per_s", rs.rates, true},
		{"latency_p50_ms", rs.p50, false},
		{"latency_p95_ms", rs.p95, false},
		{"cpu_us_per_op", rs.cpu, false},
	} {
		scaled := make([]float64, len(m.raw))
		for i, v := range m.raw {
			if m.rate {
				scaled[i] = v * rs.slow[i]
			} else {
				scaled[i] = v / rs.slow[i]
			}
		}
		o.metrics[m.name] = median(scaled)
		o.counts["unscaled."+m.name] = median(m.raw)
	}
	o.metrics["peak_rss_mb"] = median(rs.rss)
	o.steal = rs.steal
	o.counts["host.slowdown"] = median(rs.slow)
	o.counts["rounds"] = float64(len(rs.rates))
	o.counts["latency_samples"] = float64(rs.samples)
}

// ---- summaries ----

// quantile returns the q-quantile of ds in milliseconds (nearest rank).
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := min(max(int(math.Ceil(q*float64(len(s))))-1, 0), len(s)-1)
	return float64(s[i]) / float64(time.Millisecond)
}

// median returns the median of vs (the upper middle for an even count);
// every run has at least one round.
func median[T cmp.Ordered](vs []T) T {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s[len(s)/2]
}

// mean returns the mean of ds in the unit given by per.
func mean(ds []time.Duration, per time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(per)
}
