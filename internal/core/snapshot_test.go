package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"testing"
	"time"

	"ssrec/internal/dataset"
	"ssrec/internal/model"
	"ssrec/internal/profile"
)

// engineState is an engine's complete restorable state in a comparable
// form: profiles sorted by user, every map and model as held.
func engineState(t testing.TB, e *Engine) engineSnapshot {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flushUpdatesLocked()
	s := engineSnapshot{
		Config:      e.cfg,
		Background:  e.bg.Snapshot(),
		Expander:    e.expander.Snapshot(),
		Producers:   e.producers.Snapshot(),
		ConsumerObs: e.consumerObs,
		Consumers:   e.consumers,
		Population:  e.population,
		ItemZ:       e.itemZ,
		ProdPos:     e.prodPos,
	}
	st := e.index.State()
	s.Index = &st
	e.store.Each(func(p *profile.Profile) { s.Profiles = append(s.Profiles, p.Snapshot()) })
	sort.Slice(s.Profiles, func(i, j int) bool { return s.Profiles[i].UserID < s.Profiles[j].UserID })
	return s
}

func saveBytes(t testing.TB, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	return buf.Bytes()
}

func loadBytes(t testing.TB, b []byte) *Engine {
	t.Helper()
	e, err := LoadFrom(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	return e
}

// sameAnswers asks the source engine, its loaded copy and the copy's
// reload each item in lockstep (asking registers the item, so every engine
// must see the same sequence) and requires bit-identical answers, and
// identical search statistics between the two engines built from the same
// state. It reports how many items the source answered.
func sameAnswers(t *testing.T, items []model.Item, src, loaded, again *Engine) (answered int) {
	t.Helper()
	same := func(v model.Item, got, want []model.Recommendation) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("item %s: %d answers, want %d", v.ID, len(got), len(want))
		}
		for i := range want {
			if got[i].UserID != want[i].UserID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("item %s rank %d: %s %v, want %s %v", v.ID, i, got[i].UserID, got[i].Score, want[i].UserID, want[i].Score)
			}
		}
	}
	for _, v := range items {
		w := src.Recommend(v, 10)
		l, ls := loaded.RecommendStats(v, 10)
		a, as := again.RecommendStats(v, 10)
		same(v, l, w)
		same(v, a, l)
		if as != ls {
			t.Fatalf("item %s: stats %+v, want %+v", v.ID, as, ls)
		}
		if len(w) > 0 {
			answered++
		}
	}
	return answered
}

// TestSnapshotRoundTripProperty: for several seeds and batching modes
// (Observe per interaction, or ObserveBatch chunks of 16), an
// engine that has trained and then ingested part of a stream (so windows
// are part-full and a user exists that training never saw) saves and
// loads to the same state and answers bit-identically. A loaded engine
// saved and loaded again also searches identically (same SearchStats:
// both indexes are built from the same state, while the source's trees
// grew by incremental inserts and may be shaped differently), and all
// three keep learning identically.
func TestSnapshotRoundTripProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, batch := range []int{0, 16} {
			t.Run(fmt.Sprintf("seed=%d/batch=%d", seed, batch), func(t *testing.T) {
				cfg := dataset.YTubeConfig(0.1)
				cfg.Seed = seed
				ds := dataset.Generate(cfg)
				parts := ds.Partition(6)
				eng := New(Config{Categories: ds.Categories, TrainMaxIter: 3, Restarts: 1, Seed: seed})
				if err := eng.Train(ds.Items, append(append([]model.Interaction(nil), parts[0]...), parts[1]...), ds.Item); err != nil {
					t.Fatal(err)
				}
				feed := func(irs []model.Interaction, es ...*Engine) {
					var chunk []Observation
					observe := func() {
						for _, e := range es {
							if _, err := e.ObserveBatch(context.Background(), chunk); err != nil {
								t.Fatal(err)
							}
						}
						chunk = chunk[:0]
					}
					for _, ir := range irs {
						v, ok := ds.Item(ir.ItemID)
						if !ok {
							continue
						}
						if batch == 0 {
							for _, e := range es {
								e.Observe(ir, v)
							}
							continue
						}
						chunk = append(chunk, Observation{UserID: ir.UserID, Item: v, Timestamp: ir.Timestamp})
						if len(chunk) == batch {
							observe()
						}
					}
					observe()
				}
				feed(parts[2][:len(parts[2])/2], eng)
				feed([]model.Interaction{{UserID: "late-joiner", ItemID: ds.Items[0].ID, Timestamp: ds.Items[0].Timestamp + 1}}, eng)

				loaded := loadBytes(t, saveBytes(t, eng))
				if want, got := engineState(t, eng), engineState(t, loaded); !reflect.DeepEqual(got, want) {
					t.Fatal("loaded state differs from the saved engine's")
				}
				again := loadBytes(t, saveBytes(t, loaded))
				if want, got := engineState(t, loaded), engineState(t, again); !reflect.DeepEqual(got, want) {
					t.Fatal("re-saved state differs")
				}
				sameAnswers(t, ds.Items[len(ds.Items)-20:], eng, loaded, again)

				feed(parts[3][:min(200, len(parts[3]))], eng, loaded, again)
				sameAnswers(t, ds.Items[len(ds.Items)-40:len(ds.Items)-20], eng, loaded, again)
				if want, got := engineState(t, loaded), engineState(t, again); !reflect.DeepEqual(got, want) {
					t.Fatal("states diverged while learning")
				}
			})
		}
	}
}

// smallEngine is a tiny trained engine, with the dataset it learned
// from: three categories, eight consumers (some with a BiHMM, some
// without, one with a part-full window).
func smallEngine(t testing.TB) (*Engine, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Generate(dataset.GenConfig{Name: "tiny", Seed: 3, NumCategories: 3, NumProducers: 2,
		NumConsumers: 8, Steps: 30, CreateProb: 0.25, BrowseProb: 0.35, EntitiesPerCategory: 5})
	eng := New(Config{Categories: ds.Categories, TrainMaxIter: 2, Restarts: 1, MinConsumerHistory: 4})
	n := len(ds.Interactions) / 2
	if err := eng.Train(ds.Items, ds.Interactions[:n], ds.Item); err != nil {
		t.Fatal(err)
	}
	for _, ir := range ds.Interactions[n : n+7] {
		if v, ok := ds.Item(ir.ItemID); ok {
			eng.Observe(ir, v)
		}
	}
	if len(eng.consumers) == 0 || len(eng.consumers) == eng.store.Len() {
		t.Fatalf("%d of %d users have a BiHMM; want some but not all", len(eng.consumers), eng.store.Len())
	}
	return eng, ds
}

// smallSnapshot is a valid streamed snapshot of smallEngine.
func smallSnapshot(t testing.TB) []byte {
	t.Helper()
	eng, _ := smallEngine(t)
	return saveBytes(t, eng)
}

// splitSnapshot cuts a streamed snapshot into its preamble (magic and
// version) and its framed records.
func splitSnapshot(t testing.TB, b []byte) (pre []byte, recs [][]byte) {
	t.Helper()
	off := len(snapMagic) + 1
	pre = b[:off]
	for off < len(b) {
		n, k := binary.Uvarint(b[off+1:])
		end := off + 1 + k + int(n)
		recs = append(recs, b[off:end])
		off = end
	}
	return pre, recs
}

func frame(kind byte, payload []byte) []byte {
	b := binary.AppendUvarint([]byte{kind}, uint64(len(payload)))
	return append(b, payload...)
}

// refuse loads b and requires an error and no engine.
func refuse(t *testing.T, b []byte, want string) {
	t.Helper()
	e, err := LoadFrom(bytes.NewReader(b))
	if err == nil || e != nil {
		t.Fatalf("loaded (engine %v, err %v), want an error", e != nil, err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotHeadSkipsUnknownConfigField: a streamed snapshot whose
// head Config carries a field this build's Config lacks loads, through
// LoadFrom and through LoadShardFrom, to the same state, owned users and
// answers as the same head without the field, because gob skips it. Each
// case is a retired field set as its last writer set it: HashBuckets
// (every snapshot written while it was a field) and the versioned block
// table Partition (the shards of a resharded deployment, which also
// carried their slot; its owners always equalled model.ShardOf).
func TestSnapshotHeadSkipsUnknownConfigField(t *testing.T) {
	type partition struct {
		Epoch  uint64
		Shards int
		Blocks int
		Owners []int
	}
	cases := []struct {
		field string
		value any
		slot  func(*Config) // the head's shard identity, nil to keep it
	}{
		{"HashBuckets", 1 << 12, nil},
		{"UpdateBatch", 8, nil},
		{"Partition", partition{Epoch: 1, Shards: 2, Blocks: 4, Owners: []int{0, 1, 0, 1}},
			func(c *Config) { c.ShardIndex, c.ShardCount = 1, 2 }},
	}
	eng, ds := smallEngine(t)
	pre, recs := splitSnapshot(t, saveBytes(t, eng))
	_, k := binary.Uvarint(recs[0][1:])
	// fields lists v's struct fields, retyping those named in types.
	fields := func(v reflect.Value, types map[string]reflect.Type) []reflect.StructField {
		fs := make([]reflect.StructField, v.NumField())
		for i := range fs {
			fs[i] = v.Type().Field(i)
			if typ, ok := types[fs[i].Name]; ok {
				fs[i].Type = typ
			}
		}
		return fs
	}
	// widen copies head into a struct whose Config has one more field.
	widen := func(head snapshotHead, name string, value reflect.Value) any {
		cfg := reflect.ValueOf(head.Config)
		wideCfg := reflect.New(reflect.StructOf(append(fields(cfg, nil),
			reflect.StructField{Name: name, Type: value.Type()}))).Elem()
		for i := range cfg.NumField() {
			wideCfg.Field(i).Set(cfg.Field(i))
		}
		wideCfg.FieldByName(name).Set(value)
		hv := reflect.ValueOf(head)
		wide := reflect.New(reflect.StructOf(fields(hv, map[string]reflect.Type{"Config": wideCfg.Type()}))).Elem()
		for i := range hv.NumField() {
			if hv.Type().Field(i).Name == "Config" {
				wide.Field(i).Set(wideCfg)
			} else {
				wide.Field(i).Set(hv.Field(i))
			}
		}
		return wide.Interface()
	}
	loaders := []struct {
		name string
		load func(io.Reader) (*Engine, error)
	}{
		{"LoadFrom", LoadFrom},
		{"LoadShardFrom(1,2)", func(r io.Reader) (*Engine, error) { return LoadShardFrom(r, 1, 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			var head snapshotHead
			if err := gob.NewDecoder(bytes.NewReader(recs[0][1+k:])).Decode(&head); err != nil {
				t.Fatal(err)
			}
			if tc.slot != nil {
				tc.slot(&head.Config)
			}
			encode := func(h any) []byte {
				var hb bytes.Buffer
				if err := gob.NewEncoder(&hb).Encode(h); err != nil {
					t.Fatal(err)
				}
				return hb.Bytes()
			}
			plainHead, wideHead := encode(&head), encode(widen(head, tc.field, reflect.ValueOf(tc.value)))
			carried := reflect.New(reflect.StructOf([]reflect.StructField{{Name: "Config",
				Type: reflect.StructOf([]reflect.StructField{{Name: tc.field, Type: reflect.TypeOf(tc.value)}})}}))
			if err := gob.NewDecoder(bytes.NewReader(wideHead)).Decode(carried.Interface()); err != nil {
				t.Fatal(err)
			}
			if got := carried.Elem().Field(0).Field(0).Interface(); !reflect.DeepEqual(got, tc.value) {
				t.Fatalf("widened head carries %s %v, want %v", tc.field, got, tc.value)
			}
			snapshot := func(h []byte) []byte {
				return bytes.Join(append([][]byte{pre, frame(recHead, h)}, recs[1:]...), nil)
			}
			for _, ld := range loaders {
				load := func(b []byte) *Engine {
					t.Helper()
					e, err := ld.load(bytes.NewReader(b))
					if err != nil {
						t.Fatalf("%s: %v", ld.name, err)
					}
					return e
				}
				want, got := load(snapshot(plainHead)), load(snapshot(wideHead))
				if !reflect.DeepEqual(engineState(t, got), engineState(t, want)) {
					t.Fatalf("%s: state loaded from the widened head differs", ld.name)
				}
				wantSt, _ := want.IndexStats()
				gotSt, _ := got.IndexStats()
				idx, n := want.Shard()
				owned := 0
				want.Store().Each(func(p *profile.Profile) {
					if model.ShardOf(p.UserID, n) == idx {
						owned++
					}
				})
				if gotSt.OwnedUsers != wantSt.OwnedUsers || gotSt.OwnedUsers != owned || owned == 0 {
					t.Fatalf("%s: owns %d users, want %d (ShardOf gives %d)", ld.name, gotSt.OwnedUsers, wantSt.OwnedUsers, owned)
				}
				if sameAnswers(t, ds.Items, want, got, loadBytes(t, saveBytes(t, got))) == 0 {
					t.Fatalf("%s: no item has an answer to compare", ld.name)
				}
			}
		})
	}
}

func TestSnapshotRefusesTruncation(t *testing.T) {
	b := smallSnapshot(t)
	pre, recs := splitSnapshot(t, b)
	cuts := []int{len(snapMagic), len(pre), len(b) - 1}
	off := len(pre)
	for _, r := range recs[:len(recs)-1] {
		off += len(r)
		cuts = append(cuts, off-1, off, off+1)
	}
	for i := 1; i < 64; i++ {
		cuts = append(cuts, len(b)*i/64)
	}
	for _, c := range cuts {
		e, err := LoadFrom(bytes.NewReader(b[:c]))
		if err == nil || e != nil {
			t.Fatalf("cut at %d of %d: loaded", c, len(b))
		}
		if !errors.Is(err, errSnapshot) {
			t.Fatalf("cut at %d of %d: %v is not a snapshot refusal", c, len(b), err)
		}
	}
}

func TestSnapshotRefusesOversizedRecord(t *testing.T) {
	b := smallSnapshot(t)
	pre, recs := splitSnapshot(t, b)
	head := append(append([]byte(nil), pre...), recs[0]...)
	over := func(kind byte, n int) []byte {
		return binary.AppendUvarint([]byte{kind}, uint64(n))
	}
	refuse(t, append(append([]byte(nil), pre...), over(recHead, maxRecord+1)...), "cap")
	refuse(t, append(append([]byte(nil), head...), over(recUser, maxRecord+1)...), "cap")
	// A length within the cap that the stream does not back is read as
	// far as the bytes go, never allocated up front.
	claim := append(append([]byte(nil), pre...), over(recHead, maxRecord-1)...)
	claim = append(claim, make([]byte, 100)...)
	if n := allocated(func() { refuse(t, claim, "unexpected EOF") }); n > 4<<20 {
		t.Fatalf("a %d MiB claim backed by 100 bytes allocated %d bytes", maxRecord>>20, n)
	}
}

// TestSaveRefusesOversizedRecord: the writer holds itself to the reader's
// cap, so a save either fails or writes a stream that loads. With the cap
// at the largest record the save loads back; one byte lower, the save
// fails (a WAL checkpoint then keeps its predecessor).
func TestSaveRefusesOversizedRecord(t *testing.T) {
	ds := dataset.Generate(dataset.GenConfig{Name: "tiny", Seed: 3, NumCategories: 3, NumProducers: 2,
		NumConsumers: 8, Steps: 30, CreateProb: 0.25, BrowseProb: 0.35, EntitiesPerCategory: 5})
	eng := New(Config{Categories: ds.Categories, TrainMaxIter: 2, Restarts: 1})
	if err := eng.Train(ds.Items, ds.Interactions, ds.Item); err != nil {
		t.Fatal(err)
	}
	_, recs := splitSnapshot(t, saveBytes(t, eng))
	largest := 0
	for _, r := range recs {
		_, k := binary.Uvarint(r[1:])
		largest = max(largest, len(r)-1-k)
	}
	defer func(c int) { maxRecord = c }(maxRecord)
	maxRecord = largest
	loadBytes(t, saveBytes(t, eng))
	maxRecord = largest - 1
	if err := eng.SaveTo(io.Discard); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("SaveTo with a record over the cap: %v, want a cap error", err)
	}
}

func TestSnapshotRefusesCountBeyondRecord(t *testing.T) {
	b := smallSnapshot(t)
	pre, recs := splitSnapshot(t, b)
	head := append(append([]byte(nil), pre...), recs[0]...)
	user := func(tail ...uint64) []byte {
		p := append([]byte{1, 'u'}, userHasObs|userHasModel, 5)
		for _, v := range tail {
			p = binary.AppendUvarint(p, v)
		}
		return append(append([]byte(nil), head...), frame(recUser, p)...)
	}
	for name, stream := range map[string][]byte{
		"events":   user(1 << 40),
		"entities": user(1, 0, 0, 0, 0, 1<<40),
		"obs":      user(0, 0, 1<<40),
		"model":    user(0, 0, 0, 3, 2, 3),
	} {
		t.Run(name, func(t *testing.T) {
			if n := allocated(func() { refuse(t, stream, "exceeds the record") }); n > 4<<20 {
				t.Fatalf("refusal allocated %d bytes", n)
			}
		})
	}
}

func TestSnapshotRefusesWrongVersion(t *testing.T) {
	b := smallSnapshot(t)
	bad := append([]byte(nil), b...)
	bad[len(snapMagic)] = snapVersion + 1
	refuse(t, bad, "version 2 not supported")
}

// TestSnapshotRefusesInconsistentStreams covers the rest of the stream
// grammar: the trailer's count, record order and kinds, duplicate users,
// bytes past the head's gob value or past the trailer.
func TestSnapshotRefusesInconsistentStreams(t *testing.T) {
	b := smallSnapshot(t)
	pre, recs := splitSnapshot(t, b)
	join := func(parts ...[]byte) []byte { return bytes.Join(append([][]byte{pre}, parts...), nil) }
	users := recs[1 : len(recs)-1]
	trailer := recs[len(recs)-1]
	_, k := binary.Uvarint(recs[0][1:])
	headPayload := append([]byte(nil), recs[0][1+k:]...)
	cases := map[string]struct {
		stream []byte
		want   string
	}{
		"dropped user":   {join(append(append([][]byte{recs[0]}, users[:len(users)-1]...), trailer)...), "trailer counts"},
		"duplicate user": {join(append(append([][]byte{recs[0]}, users...), users[0], trailer)...), "appears twice"},
		"no head":        {join(users[0]), "before the head"},
		"unknown kind":   {join(recs[0], frame(9, nil)), "unknown record kind"},
		"padded trailer": {join(append(append([][]byte{recs[0]}, users...), frame(recTrailer, append(trailer[2:], 0)))...), "trailing bytes"},
		"padded head":    {join(append(append([][]byte{frame(recHead, append(headPayload, 0))}, users...), trailer)...), "trailing bytes in the head"},
		"data after":     {join(append(append([][]byte{recs[0]}, users...), trailer, []byte{0})...), "after the trailer"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { refuse(t, c.stream, c.want) })
	}
}

// FuzzDecodeSnapshot holds the streamed decoder to its contract on
// arbitrary bytes: it never panics, and it returns either an engine or an
// error, never both or neither. Seeds are a small valid snapshot and its
// truncations.
func FuzzDecodeSnapshot(f *testing.F) {
	b := smallSnapshot(f)
	f.Add(b)
	_, recs := splitSnapshot(f, b)
	for _, c := range []int{len(snapMagic) + 1, len(snapMagic) + 1 + len(recs[0]), len(b) / 2, len(b) - 1} {
		f.Add(b[:c])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, snapMagic) {
			return // the legacy reader is gzip and gob, fuzzed upstream
		}
		e, _, err := decodeStream(bufio.NewReader(bytes.NewReader(data[len(snapMagic):])), func(*Config) {})
		if (err == nil) == (e == nil) {
			t.Fatalf("engine %v with error %v", e != nil, err)
		}
	})
}

// heapPeak runs fn and returns how far the heap's object bytes rose above
// where they stood before it, sampled every 200µs.
func heapPeak(fn func()) uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 { metrics.Read(sample); return sample[0].Value.Uint64() }
	base := read()
	peak := base
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			peak = max(peak, read())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	<-done
	return max(peak, read()) - base
}

// BenchmarkSaveTo times a snapshot save at a fixed synthetic size (the
// YTube generator at scale 0.1) into a sink: save_ms, the snapshot's size
// and how far the heap rose during the save. The heap is sampled in one
// more, untimed save, so its forced GC and sampler stay out of save_ms.
func BenchmarkSaveTo(b *testing.B) {
	src, _, _ := streamEngine(b, Config{})
	var cw countWriter
	save := func() {
		cw = 0
		if err := src.SaveTo(&cw); err != nil {
			b.Fatalf("SaveTo: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		save()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "save_ms")
	b.ReportMetric(float64(cw), "snapshot_bytes")
	b.ReportMetric(float64(heapPeak(save))/(1<<20), "peak_heap_mb")
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// BenchmarkLoadFrom splits a snapshot load into its two steps at the same
// size: decode_ms streams the records into a fresh engine, build_ms
// rebuilds its index. One more, untimed load takes the memory figures, so
// its forced GC, heap sampler and MemStats reads stay out of the times:
// build_alloc_mb is the bytes the rebuild allocates (MemStats.TotalAlloc
// across finishLoad), its garbage included, and peak_heap_mb is how far
// the heap rose during both steps.
func BenchmarkLoadFrom(b *testing.B) {
	src, _, _ := streamEngine(b, Config{})
	snap := saveBytes(b, src)
	// load decodes snap and rebuilds the engine's index, calling mark
	// after each step, and returns how long each step took.
	load := func(mark func()) (decode, build time.Duration) {
		t0 := time.Now()
		e, st, err := decodeFrom(bytes.NewReader(snap), func(*Config) {})
		decode = time.Since(t0)
		if err != nil {
			b.Fatalf("decode: %v", err)
		}
		mark()
		t1 := time.Now()
		if err := e.finishLoad(st); err != nil {
			b.Fatalf("build: %v", err)
		}
		build = time.Since(t1)
		mark()
		return decode, build
	}
	b.ReportAllocs()
	b.ResetTimer()
	var decode, build time.Duration
	for i := 0; i < b.N; i++ {
		d, bl := load(func() {})
		decode, build = decode+d, build+bl
	}
	b.StopTimer()
	var marks [2]runtime.MemStats
	k := 0
	peak := heapPeak(func() { load(func() { runtime.ReadMemStats(&marks[k]); k++ }) })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
	b.ReportMetric(ms(decode), "decode_ms")
	b.ReportMetric(ms(build), "build_ms")
	b.ReportMetric(float64(marks[1].TotalAlloc-marks[0].TotalAlloc)/(1<<20), "build_alloc_mb")
	b.ReportMetric(float64(peak)/(1<<20), "peak_heap_mb")
}
