// frames.go is the binary codec of the shard RPC: the request bodies of
// POST /register, /observe and /replay, and both directions of the query
// stream, are sequences of frames built from the binrec primitives.
//
// A frame is a kind byte, a uvarint payload length and the payload. Each
// frame carries its own name table (item ids, categories, producers,
// entities and a micro-batch's user ids go through it), so a frame
// decodes alone, and scores travel as raw IEEE-754 bits. A receiver
// skips every frame kind it does not act on, unknown kinds included.
//
//	item         name id | name category | name producer | uvarint n | name entity × n
//	             | str description | varint timestamp
//	observation  name user | item | varint timestamp
//
//	register         uvarint n | item × n
//	observe          uvarint n | observation × n
//	replay register  uvarint seq | uvarint n | item × n
//	replay observe   uvarint seq | uvarint n | observation × n
//	ask              uvarint id | flags | varint k | item | [str trace]
//	cancel           uvarint id
//	terminal         uvarint id | flags | str item id | uvarint nodes, scored,
//	                 skipped | uvarint n | (str user | float score) × n
//	                 | [str code | str message] | [uvarint n | span × n]
//	span             uvarint trace id, span id, parent id | str name
//	                 | varint start, duration | uvarint n | (str key | str value) × n
//
// The bracketed fields are present only when a flag bit says so, so an
// untraced ask or terminal frame carries no trace or span bytes. A
// register or observe body holds exactly one frame of its kind; a replay
// body holds its missed writes in order, one frame each.
package shardrpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"ssrec/internal/binrec"
	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/shard"
	"ssrec/internal/sigtree"
	"ssrec/internal/telemetry"
)

// contentTypeFrames marks a request body of frames, the only request
// codec a shardd reads: a request without it is refused with 415.
const contentTypeFrames = "application/x-ssrec-frames"

// framesVersion is the frame codec version this shardd reads, announced
// as "frames" in its health body. A shardd that reads version n reads
// every version below it.
const framesVersion = 1

// Frame kinds.
const (
	frameRegister       byte = 1
	frameObserve        byte = 2
	frameReplayRegister byte = 3
	frameReplayObserve  byte = 4
	frameAsk            byte = 5
	frameCancel         byte = 6
	frameTerminal       byte = 7
)

// Flag bits of an ask frame.
const (
	askNoExpansion = 1 << iota
	askTraced
)

// Flag bits of a terminal frame.
const (
	termChanged = 1 << iota
	termErr
	termSpans
)

// Lower bounds on encoded sizes, against which counts are checked.
const (
	minItem = 6 // three name references, an entity count, a description length, a timestamp
	minObs  = 1 + minItem + 1
	minRec  = 1 + 8
	minSpan = 7
)

// errFrame marks every refusal of a malformed frame.
var errFrame = errors.New("shardrpc: malformed frame")

// askMsg is one decoded ask of the query stream.
type askMsg struct {
	item  model.Item
	opts  core.QueryOptions
	trace string
}

// terminal is the answer to one ask: the search's result, the error (nil
// when none), whether the ask's registration advanced the replicated
// dictionaries, and the shard-side spans of a traced ask.
type terminal struct {
	id      uint64
	res     core.Result
	err     *errWire
	changed bool
	spans   []telemetry.SpanData
}

// replayStep is one missed write of a replay body: a registration, or a
// micro-batch when observe is set.
type replayStep struct {
	seq     uint64
	observe bool
	items   []model.Item
	obs     []core.Observation
}

// ---- encoding ----

// frameWriter appends frames to out. Each frame is built in rec with a
// fresh name table; rec's storage is reused from frame to frame.
type frameWriter struct {
	rec binrec.Writer
	out []byte
}

func (f *frameWriter) begin() {
	f.rec.Reset()
	f.rec.ResetNames()
}

func (f *frameWriter) end(kind byte) { f.out = binrec.AppendRecord(f.out, kind, f.rec.Buf) }

func (f *frameWriter) item(v model.Item) {
	f.rec.Name(v.ID)
	f.rec.Name(v.Category)
	f.rec.Name(v.Producer)
	f.rec.Uvarint(uint64(len(v.Entities)))
	for _, e := range v.Entities {
		f.rec.Name(e)
	}
	f.rec.Str(v.Description)
	f.rec.Varint(v.Timestamp)
}

func (f *frameWriter) items(vs []model.Item) {
	f.rec.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		f.item(v)
	}
}

func (f *frameWriter) observations(batch []core.Observation) {
	f.rec.Uvarint(uint64(len(batch)))
	for _, o := range batch {
		f.rec.Name(o.UserID)
		f.item(o.Item)
		f.rec.Varint(o.Timestamp)
	}
}

func (f *frameWriter) register(items []model.Item) {
	f.begin()
	f.items(items)
	f.end(frameRegister)
}

func (f *frameWriter) observe(batch []core.Observation) {
	f.begin()
	f.observations(batch)
	f.end(frameObserve)
}

// replay writes each missed batch as a registration frame, a micro-batch
// frame or both, in that order, under the batch's sequence number.
func (f *frameWriter) replay(batches []shard.ReplayBatch) {
	for _, b := range batches {
		if len(b.Items) > 0 {
			f.begin()
			f.rec.Uvarint(b.Seq)
			f.items(b.Items)
			f.end(frameReplayRegister)
		}
		if len(b.Obs) > 0 {
			f.begin()
			f.rec.Uvarint(b.Seq)
			f.observations(b.Obs)
			f.end(frameReplayObserve)
		}
	}
}

func (f *frameWriter) ask(id uint64, a *askMsg) {
	f.begin()
	f.rec.Uvarint(id)
	var flags byte
	if a.opts.NoExpansion {
		flags |= askNoExpansion
	}
	if a.trace != "" {
		flags |= askTraced
	}
	f.rec.Byte(flags)
	f.rec.Varint(int64(a.opts.K))
	f.item(a.item)
	if a.trace != "" {
		f.rec.Str(a.trace)
	}
	f.end(frameAsk)
}

func (f *frameWriter) cancel(id uint64) {
	f.begin()
	f.rec.Uvarint(id)
	f.end(frameCancel)
}

func (f *frameWriter) terminal(t *terminal) {
	f.begin()
	f.rec.Uvarint(t.id)
	var flags byte
	if t.changed {
		flags |= termChanged
	}
	if t.err != nil {
		flags |= termErr
	}
	if len(t.spans) > 0 {
		flags |= termSpans
	}
	f.rec.Byte(flags)
	f.rec.Str(t.res.ItemID)
	f.rec.Uvarint(uint64(t.res.Stats.NodesVisited))
	f.rec.Uvarint(uint64(t.res.Stats.EntriesScored))
	f.rec.Uvarint(uint64(t.res.Stats.EntriesSkipped))
	f.rec.Uvarint(uint64(len(t.res.Recommendations)))
	for _, r := range t.res.Recommendations {
		f.rec.Str(r.UserID)
		f.rec.Float(r.Score)
	}
	if t.err != nil {
		f.rec.Str(t.err.Code)
		f.rec.Str(t.err.Message)
	}
	if len(t.spans) > 0 {
		f.rec.Uvarint(uint64(len(t.spans)))
		for _, sp := range t.spans {
			f.rec.Uvarint(sp.TraceID)
			f.rec.Uvarint(sp.SpanID)
			f.rec.Uvarint(sp.ParentID)
			f.rec.Str(sp.Name)
			f.rec.Varint(sp.StartNs)
			f.rec.Varint(sp.DurNs)
			f.rec.Uvarint(uint64(len(sp.Attrs)))
			for _, a := range sp.Attrs {
				f.rec.Str(a.K)
				f.rec.Str(a.V)
			}
		}
	}
	f.end(frameTerminal)
}

// ---- decoding ----

// frameReader reads frames off one body or stream, none longer than max.
type frameReader struct {
	rec binrec.Reader
	br  *bufio.Reader
	max int
}

func newFrameReader(r io.Reader, max int) *frameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &frameReader{rec: binrec.Reader{Refusal: errFrame}, br: br, max: max}
}

// next reads the next frame and returns its kind, or io.EOF when the
// input ends cleanly between frames.
func (f *frameReader) next() (byte, error) {
	f.rec.ResetNames()
	return f.rec.Next(f.br, f.max)
}

// done refuses a frame with bytes past its last field and returns the
// frame's decoding error.
func (f *frameReader) done() error {
	f.rec.End("a frame")
	return f.rec.Err
}

func (f *frameReader) item() model.Item {
	v := model.Item{ID: f.rec.Name(), Category: f.rec.Name(), Producer: f.rec.Name()}
	if n := f.rec.Count(1); n > 0 {
		v.Entities = make([]string, n)
		for i := range v.Entities {
			v.Entities[i] = f.rec.Name()
		}
	}
	v.Description = f.rec.Str()
	v.Timestamp = f.rec.Varint()
	return v
}

func (f *frameReader) items() []model.Item {
	vs := make([]model.Item, f.rec.Count(minItem))
	for i := range vs {
		vs[i] = f.item()
	}
	return vs
}

func (f *frameReader) observations() []core.Observation {
	batch := make([]core.Observation, f.rec.Count(minObs))
	for i := range batch {
		batch[i].UserID = f.rec.Name()
		batch[i].Item = f.item()
		batch[i].Timestamp = f.rec.Varint()
	}
	return batch
}

// flags reads a flag byte and refuses bits outside known.
func (f *frameReader) flags(known byte) byte {
	b := f.rec.Byte()
	if b&^known != 0 {
		f.rec.Fail("unknown flags")
	}
	return b
}

// ask decodes an ask frame's payload.
func (f *frameReader) ask() (uint64, askMsg, error) {
	id := f.rec.Uvarint()
	flags := f.flags(askNoExpansion | askTraced)
	a := askMsg{opts: core.QueryOptions{K: f.rec.Int(), NoExpansion: flags&askNoExpansion != 0}}
	a.item = f.item()
	if flags&askTraced != 0 {
		a.trace = f.rec.Str()
		if f.rec.Err == nil && a.trace == "" {
			f.rec.Fail("empty trace")
		}
	}
	return id, a, f.done()
}

// cancel decodes a cancel frame's payload.
func (f *frameReader) cancel() (uint64, error) {
	id := f.rec.Uvarint()
	return id, f.done()
}

// terminal decodes a terminal frame's payload.
func (f *frameReader) terminal() (terminal, error) {
	t := terminal{id: f.rec.Uvarint()}
	flags := f.flags(termChanged | termErr | termSpans)
	t.changed = flags&termChanged != 0
	t.res.ItemID = f.rec.Str()
	t.res.Stats = sigtree.SearchStats{
		NodesVisited:   int(f.rec.Uvarint()),
		EntriesScored:  int(f.rec.Uvarint()),
		EntriesSkipped: int(f.rec.Uvarint()),
	}
	if n := f.rec.Count(minRec); n > 0 {
		t.res.Recommendations = make([]model.Recommendation, n)
		for i := range t.res.Recommendations {
			t.res.Recommendations[i] = model.Recommendation{UserID: f.rec.Str(), Score: f.rec.Float()}
		}
	}
	if flags&termErr != 0 {
		t.err = &errWire{Code: f.rec.Str(), Message: f.rec.Str()}
	}
	if flags&termSpans != 0 {
		n := f.rec.Count(minSpan)
		if f.rec.Err == nil && n == 0 {
			f.rec.Fail("empty span list")
		}
		t.spans = make([]telemetry.SpanData, n)
		for i := range t.spans {
			sp := &t.spans[i]
			sp.TraceID, sp.SpanID, sp.ParentID = f.rec.Uvarint(), f.rec.Uvarint(), f.rec.Uvarint()
			sp.Name = f.rec.Str()
			sp.StartNs, sp.DurNs = f.rec.Varint(), f.rec.Varint()
			if k := f.rec.Count(2); k > 0 {
				sp.Attrs = make(telemetry.Attrs, k)
				for j := range sp.Attrs {
					sp.Attrs[j] = telemetry.Attr{K: f.rec.Str(), V: f.rec.Str()}
				}
			}
		}
	}
	return t, f.done()
}

// readBatchBody reads a register or observe body: exactly one frame of
// kind want, decoded by decode, among frames of other kinds it skips.
func readBatchBody(r io.Reader, max int, want byte, decode func(*frameReader)) error {
	f := newFrameReader(r, max)
	seen := false
	for {
		kind, err := f.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if kind != want {
			continue
		}
		if seen {
			return fmt.Errorf("%w: a second batch in one body", errFrame)
		}
		seen = true
		decode(f)
		if err := f.done(); err != nil {
			return err
		}
	}
	if !seen {
		return fmt.Errorf("%w: no batch in the body", errFrame)
	}
	return nil
}

func readRegisterBody(r io.Reader, max int) (items []model.Item, err error) {
	err = readBatchBody(r, max, frameRegister, func(f *frameReader) { items = f.items() })
	return items, err
}

func readObserveBody(r io.Reader, max int) (batch []core.Observation, err error) {
	err = readBatchBody(r, max, frameObserve, func(f *frameReader) { batch = f.observations() })
	return batch, err
}

// readReplayBody reads a replay body's missed writes in order, skipping
// frames of other kinds.
func readReplayBody(r io.Reader, max int) ([]replayStep, error) {
	f := newFrameReader(r, max)
	var steps []replayStep
	for {
		kind, err := f.next()
		if err == io.EOF {
			return steps, nil
		}
		if err != nil {
			return nil, err
		}
		var st replayStep
		switch kind {
		case frameReplayRegister:
			st.seq = f.rec.Uvarint()
			st.items = f.items()
		case frameReplayObserve:
			st.seq, st.observe = f.rec.Uvarint(), true
			st.obs = f.observations()
		default:
			continue
		}
		if err := f.done(); err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
}
