package main

import (
	"strconv"
	"sync"
	"time"
)

// The speed of a shared virtual machine drifts: other tenants' cache and
// memory traffic slows the same code by tens of per cent for minutes at a
// time, longer than a run, so medians over rounds cannot remove it. Every
// round therefore also times a fixed probe, and the round's timings are
// scaled to a reference host on which one step of the probe's walk takes
// refStep (see rounds.report). The probe calls nothing of the program, so
// a change to the program moves a scaled metric exactly as it moves the
// raw one.
//
// The probe is a dependent walk through an 8 MB random cycle, about the
// working set where the drift bites, with a fixed mix of other work
// between walks: integer arithmetic on one and on two goroutines, and
// building a 100k-key map, which evicts part of the cycle from the cache
// as the program's own work does between its visits. Measured on every
// workload, the walk with this mix tracks the drift about one for one;
// walks back to back find the cycle still cached, swing further than the
// workloads do, and scaling by them left the spread between runs about as
// wide as without scaling.
const (
	probeEntries = 2 << 20 // uint32 entries: 8 MB
	probeSteps   = 300_000 // steps per walk
	probeWalks   = 5       // walks per sample
	refStep      = 90 * time.Nanosecond
)

// hostProbe times walks of its cycle and keeps the times until the round
// ends.
type hostProbe struct {
	cycle []uint32
	walks []time.Duration
	sink  int // keeps every result of the probe's work alive
}

func newHostProbe() *hostProbe {
	c := make([]uint32, probeEntries)
	for i := range c {
		c[i] = uint32(i)
	}
	// Sattolo's shuffle leaves a single cycle through every entry, so no
	// walk is trapped in a short loop that stays in cache.
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(c) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		c[i], c[j] = c[j], c[i]
	}
	return &hostProbe{cycle: c}
}

// sample times probeWalks walks, each followed by the mix.
func (h *hostProbe) sample() {
	for w := 0; w < probeWalks; w++ {
		p := uint32(0)
		t0 := time.Now()
		for i := 0; i < probeSteps; i++ {
			p = h.cycle[p]
		}
		h.walks = append(h.walks, time.Since(t0))
		h.sink += int(p) + arith(10_000_000)
		var wg sync.WaitGroup
		var r [2]int
		for g := range r {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r[g] = arith(10_000_000)
			}()
		}
		wg.Wait()
		m := make(map[string]int)
		for i := 0; i < 100_000; i++ {
			m["k"+strconv.Itoa(i)] = i
		}
		h.sink += r[0] + r[1] + len(m)
	}
}

// arith runs n steps of a 64-bit generator.
func arith(n int) int {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	return int(x)
}

// slowdown returns how much slower than the reference host the walks since
// the last call ran, from their median, and forgets them.
func (h *hostProbe) slowdown() float64 {
	d := median(h.walks)
	h.walks = h.walks[:0]
	return float64(d) / probeSteps / float64(refStep)
}
