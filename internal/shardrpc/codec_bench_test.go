package shardrpc

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/dataset"
	"ssrec/internal/model"
)

// ytubeBatch is a 64-observation micro-batch of a YTube-shaped dataset
// at the fleet benchmark's width (5000 users, 400 producers), cut from
// the stream after its first third, as the fleet workload cuts its
// batches.
func ytubeBatch(b *testing.B) []core.Observation {
	b.Helper()
	cfg := dataset.YTubeConfig(1)
	cfg.NumConsumers, cfg.NumProducers, cfg.Steps = 5000, 400, 30
	cfg.BrowseProb, cfg.Seed = 0.2, 1
	ds := dataset.Generate(cfg)
	rest := ds.Interactions[len(ds.Interactions)/3:]
	if len(rest) < 64 {
		b.Fatalf("the dataset holds %d streamed interactions, want 64", len(rest))
	}
	batch := make([]core.Observation, 64)
	for i, ir := range rest[:64] {
		v, ok := ds.Item(ir.ItemID)
		if !ok {
			b.Fatalf("interaction references unknown item %q", ir.ItemID)
		}
		batch[i] = core.Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp}
	}
	return batch
}

// BenchmarkObserveCodec times the frames of a POST /observe body on a
// 64-observation YTube-5k batch, encoded as the router encodes it and
// decoded as the shardd decodes it. bytes/frame is the body's size.
func BenchmarkObserveCodec(b *testing.B) {
	batch := ytubeBatch(b)
	body := encodeBody(func(f *frameWriter) { f.observe(batch) })
	runCodec(b, "frames/encode", len(body), func() error {
		encodeBody(func(f *frameWriter) { f.observe(batch) })
		return nil
	})
	runCodec(b, "frames/decode", len(body), func() error {
		got, err := readObserveBody(bytes.NewReader(body), maxFrameBytes)
		if err == nil && len(got) != len(batch) {
			err = fmt.Errorf("decoded %d observations", len(got))
		}
		return err
	})
}

// BenchmarkQueryStreamCodec times a k = 30 terminal frame of the query
// stream, encoded as the shardd encodes it and decoded as the router
// decodes it. bytes/frame is the frame's size.
func BenchmarkQueryStreamCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	res := core.Result{ItemID: "v004217"}
	for i := range 30 {
		res.Recommendations = append(res.Recommendations,
			model.Recommendation{UserID: fmt.Sprintf("uc%05d", rng.Intn(5000)), Score: 1 / (1 + float64(i) + rng.Float64())})
	}
	res.Stats.NodesVisited, res.Stats.EntriesScored, res.Stats.EntriesSkipped = 212, 1304, 87
	t := &terminal{id: 48213, res: res, changed: true}
	frame := encodeBody(func(f *frameWriter) { f.terminal(t) })
	var fw frameWriter
	runCodec(b, "frames/encode", len(frame), func() error {
		fw.out = fw.out[:0]
		fw.terminal(t)
		return nil
	})
	br := bufio.NewReader(nil)
	f := newFrameReader(br, maxFrameBytes) // one per stream, as the router's reader
	runCodec(b, "frames/decode", len(frame), func() error {
		br.Reset(bytes.NewReader(frame))
		if _, err := f.next(); err != nil {
			return err
		}
		got, err := f.terminal()
		if err == nil && len(got.res.Recommendations) != 30 {
			err = fmt.Errorf("decoded %d recommendations", len(got.res.Recommendations))
		}
		return err
	})
}

// runCodec runs fn as the sub-benchmark name, reporting allocations and
// size, the bytes of the message fn encodes or decodes.
func runCodec(b *testing.B, name string, size int, fn func() error) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := fn(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(size), "bytes/frame")
	})
}
