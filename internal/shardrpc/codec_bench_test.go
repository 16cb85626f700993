package shardrpc

import (
	"bufio"
	"bytes"
	"encoding/json"
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

// BenchmarkObserveCodec compares the two codecs of a POST /observe body
// on a 64-observation YTube-5k batch: the JSON an older router sends and
// the frames a router sends now, each encoded as the router encodes it
// and decoded as the shardd decodes it. bytes/frame is the body's size.
func BenchmarkObserveCodec(b *testing.B) {
	batch := ytubeBatch(b)
	legacy := toObsWire(batch)
	jsonBody, err := json.Marshal(legacy)
	if err != nil {
		b.Fatal(err)
	}
	body := encodeBody(func(f *frameWriter) { f.observe(batch) })
	runCodec(b, "json/encode", len(jsonBody), func() error {
		_, err := json.Marshal(legacy)
		return err
	})
	runCodec(b, "json/decode", len(jsonBody), func() error {
		var w observeWire
		if err := json.NewDecoder(bytes.NewReader(jsonBody)).Decode(&w); err != nil {
			return err
		}
		if got := w.batch(); len(got) != len(batch) {
			return fmt.Errorf("decoded %d observations", len(got))
		}
		return nil
	})
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

// BenchmarkQueryStreamCodec compares the two codecs of a k = 30 terminal
// message of the query stream: an NDJSON line as a shardd answers an
// older router, and a terminal frame as it answers a router now, each
// encoded as the shardd encodes it and decoded as the router decodes it.
// bytes/frame is the message's size.
func BenchmarkQueryStreamCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	res := core.Result{ItemID: "v004217"}
	for i := range 30 {
		res.Recommendations = append(res.Recommendations,
			model.Recommendation{UserID: fmt.Sprintf("uc%05d", rng.Intn(5000)), Score: 1 / (1 + float64(i) + rng.Float64())})
	}
	res.Stats.NodesVisited, res.Stats.EntriesScored, res.Stats.EntriesSkipped = 212, 1304, 87
	t := &terminal{id: 48213, res: res, changed: true}
	line := func(dst []byte) ([]byte, error) {
		raw, err := json.Marshal(qsLine{ID: t.id, Result: toResultWire(t.res), Changed: t.changed})
		return append(append(dst, raw...), '\n'), err
	}
	jsonLine, err := line(nil)
	if err != nil {
		b.Fatal(err)
	}
	frame := encodeBody(func(f *frameWriter) { f.terminal(t) })
	var out []byte
	runCodec(b, "json/encode", len(jsonLine), func() error {
		out, err = line(out[:0])
		return err
	})
	runCodec(b, "json/decode", len(jsonLine), func() error {
		var l qsLine
		if err := json.NewDecoder(bytes.NewReader(jsonLine)).Decode(&l); err != nil {
			return err
		}
		if got := l.Result.result(); len(got.Recommendations) != 30 {
			return fmt.Errorf("decoded %d recommendations", len(got.Recommendations))
		}
		return nil
	})
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
