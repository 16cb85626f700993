package core

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"ssrec/internal/bihmm"
	"ssrec/internal/binrec"
	"ssrec/internal/cppse"
	"ssrec/internal/entity"
	"ssrec/internal/profile"
)

// A snapshot is one stream (see DESIGN.md, "Snapshot format"):
//
//	magic "ssrecSNP" | uvarint version
//	head record     Config and the small learned components, as gob
//	user record × n one per profile, in store order
//	trailer record  uvarint n
//
// A record is a kind byte, a uvarint payload length and the payload. The
// bulk of the CPPse-index is NOT serialised — universes, trees, leaves and
// the hash table are pure functions of the profile/model state and are
// rebuilt on load. The one exception is the head's Index: the block
// clustering and user → block assignments are path-dependent (one-pass
// clustering over the profiles as they were at build time, plus
// incremental nearest-centroid assignments since), so they ride along and
// pin the rebuild.
var snapMagic = []byte("ssrecSNP")

const snapVersion = 1

// Record kinds.
const (
	recHead    = 1
	recUser    = 2
	recTrailer = 3
)

// maxRecord caps every record's payload on both sides: SaveTo refuses to
// write a longer one, so a WAL checkpoint fails and keeps its predecessor
// instead of installing a file no reader accepts, and the reader refuses
// a longer length before reading a byte. It equals shardrpc's default
// MaxSnapshotBytes, past which a snapshot cannot be handed off anyway. It
// is a variable only so tests can reach it with small streams.
var maxRecord = 1 << 30

// User record flags.
const (
	userHasObs   = 1 << 0
	userHasModel = 1 << 1
)

// snapshotHead is the head record's payload. It stays gob so Config can
// gain or lose fields without a format change.
type snapshotHead struct {
	Config     Config
	Background profile.BackgroundSnapshot
	Expander   entity.ExpanderSnapshot
	Producers  bihmm.LayerSnapshot
	Population *bihmm.BHMM
	ItemZ      map[string]int
	ProdPos    map[string]int
	Index      *cppse.State
}

// SaveTo streams the trained engine to w in the snapshot format, through
// a bounded buffer and straight from live state: nothing is copied but
// the head record. It returns an error if the engine has not been
// trained. The engine's write lock is held throughout.
func (e *Engine) SaveTo(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.trained {
		return fmt.Errorf("core: cannot save an untrained engine")
	}
	e.flushUpdatesLocked()
	head := snapshotHead{
		Config:     e.cfg,
		Background: e.bg.Snapshot(),
		Expander:   e.expander.Snapshot(),
		Producers:  e.producers.Snapshot(),
		Population: e.population,
		ItemZ:      e.itemZ,
		ProdPos:    e.prodPos,
	}
	if e.index != nil {
		st := e.index.State()
		head.Index = &st
	}
	sw := &snapWriter{w: bufio.NewWriterSize(w, 64<<10)}
	sw.w.Write(snapMagic)                              //nolint:errcheck // sticky: surfaces at the next Write or Flush
	sw.w.Write(binary.AppendUvarint(nil, snapVersion)) //nolint:errcheck
	var hb bytes.Buffer
	if err := gob.NewEncoder(&hb).Encode(&head); err != nil {
		return fmt.Errorf("core: encode snapshot head: %w", err)
	}
	sw.Buf = hb.Bytes()
	if err := sw.record(recHead); err != nil {
		return err
	}
	sw.Buf = nil
	var users, withObs, withModel int
	var err error
	e.store.Each(func(p *profile.Profile) {
		if err != nil {
			return
		}
		obs, hasObs := e.consumerObs[p.UserID]
		m := e.consumers[p.UserID]
		if hasObs {
			withObs++
		}
		if m != nil {
			withModel++
		}
		err = sw.user(p, obs, hasObs, m)
		users++
	})
	if err != nil {
		return err
	}
	if withObs != len(e.consumerObs) || withModel != len(e.consumers) {
		return fmt.Errorf("core: consumer state held for users without a profile")
	}
	sw.Reset()
	sw.Uvarint(uint64(users))
	if err := sw.record(recTrailer); err != nil {
		return err
	}
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("core: write snapshot: %w", err)
	}
	return nil
}

// snapWriter builds one record at a time and frames it into w.
// Category, producer and entity names go through a name table shared by
// the whole stream (binrec.Writer.Name).
type snapWriter struct {
	binrec.Writer
	w *bufio.Writer
}

// record frames the payload into w. It refuses a payload over maxRecord
// and returns the writer's error, which bufio keeps: once a write fails,
// every later one fails too.
func (sw *snapWriter) record(kind byte) error {
	if len(sw.Buf) > maxRecord {
		return fmt.Errorf("core: snapshot record of kind %d is %d bytes, cap %d", kind, len(sw.Buf), maxRecord)
	}
	var hdr [binrec.MaxHeader]byte
	if _, err := sw.w.Write(binrec.AppendHeader(hdr[:0], kind, len(sw.Buf))); err != nil {
		return fmt.Errorf("core: write snapshot: %w", err)
	}
	if _, err := sw.w.Write(sw.Buf); err != nil {
		return fmt.Errorf("core: write snapshot: %w", err)
	}
	return nil
}

func (sw *snapWriter) events(evs []profile.Event) {
	sw.Uvarint(uint64(len(evs)))
	var prev int64
	for _, ev := range evs {
		sw.Name(ev.Category)
		sw.Name(ev.Producer)
		sw.Uvarint(uint64(len(ev.Entities)))
		for _, ent := range ev.Entities {
			sw.Name(ent)
		}
		sw.Varint(ev.Timestamp - prev)
		prev = ev.Timestamp
	}
}

// user writes one user record: id, flags, the profile's window size, long
// list and window, then the observations and the BiHMM if present.
func (sw *snapWriter) user(p *profile.Profile, obs []bihmm.Obs, hasObs bool, m *bihmm.BHMM) error {
	sw.Reset()
	sw.Str(p.UserID)
	var flags byte
	if hasObs {
		flags |= userHasObs
	}
	if m != nil {
		flags |= userHasModel
	}
	sw.Byte(flags)
	sw.Uvarint(uint64(p.WindowSize()))
	long, window := p.Events()
	sw.events(long)
	sw.events(window)
	if hasObs {
		sw.Uvarint(uint64(len(obs)))
		for _, o := range obs {
			sw.Varint(int64(o.Cat))
			sw.Varint(int64(o.Z))
		}
	}
	if m != nil {
		sw.Uvarint(uint64(m.NU))
		sw.Uvarint(uint64(m.NZ))
		sw.Uvarint(uint64(m.M))
		sw.Floats(m.Pi)
		for _, rows := range [][][][]float64{m.A, m.B} {
			for _, z := range rows {
				for _, row := range z {
					sw.Floats(row)
				}
			}
		}
	}
	return sw.record(recUser)
}

// LoadFrom deserialises an engine previously written by SaveTo (or a
// legacy gzip(gob) snapshot) and rebuilds the CPPse-index, returning a
// ready-to-serve engine.
func LoadFrom(r io.Reader) (*Engine, error) {
	return loadFrom(r, func(*Config) {})
}

// LoadShardFrom deserialises a snapshot as shard idx of an n-way
// deployment: identical restored state, but the rebuilt index materialises
// leaves only for the owned user block. This is how every shard of a local
// or remote deployment boots from ONE shared snapshot (shard.Booted)
// without paying the index build twice.
func LoadShardFrom(r io.Reader, idx, n int) (*Engine, error) {
	if n > 1 && (idx < 0 || idx >= n) {
		return nil, fmt.Errorf("core: shard index %d out of range [0,%d)", idx, n)
	}
	return loadFrom(r, func(c *Config) {
		c.ShardIndex, c.ShardCount = idx, n
	})
}

func loadFrom(r io.Reader, reconfig func(*Config)) (*Engine, error) {
	e, st, err := decodeFrom(r, reconfig)
	if err != nil {
		return nil, err
	}
	if err := e.finishLoad(st); err != nil {
		return nil, err
	}
	return e, nil
}

// decodeFrom restores every learned component and profile from a
// snapshot stream of either format, leaving only the index to build.
func decodeFrom(r io.Reader, reconfig func(*Config)) (*Engine, *cppse.State, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	if magic, err := br.Peek(len(snapMagic)); err == nil && bytes.Equal(magic, snapMagic) {
		br.Discard(len(snapMagic)) //nolint:errcheck // peeked
		return decodeStream(br, reconfig)
	}
	snap, err := decodeSnapshot(br)
	if err != nil {
		return nil, nil, err
	}
	reconfig(&snap.Config)
	e := fromHead(&snapshotHead{
		Config:     snap.Config,
		Background: snap.Background,
		Expander:   snap.Expander,
		Producers:  snap.Producers,
		Population: snap.Population,
		ItemZ:      snap.ItemZ,
		ProdPos:    snap.ProdPos,
	})
	if snap.ConsumerObs != nil {
		e.consumerObs = snap.ConsumerObs
	}
	if snap.Consumers != nil {
		e.consumers = snap.Consumers
	}
	for _, ps := range snap.Profiles {
		e.store.Put(profile.FromSnapshot(ps))
	}
	return e, snap.Index, nil
}

// fromHead assembles an engine from the head's components; profiles,
// observations and consumer models follow.
func fromHead(h *snapshotHead) *Engine {
	e := New(h.Config)
	e.bg = profile.BackgroundFromSnapshot(h.Background)
	e.expander = entity.ExpanderFromSnapshot(h.Expander)
	e.producers = bihmm.LayerFromSnapshot(h.Producers)
	e.population = h.Population
	if h.ItemZ != nil {
		e.itemZ = h.ItemZ
	}
	if h.ProdPos != nil {
		e.prodPos = h.ProdPos
	}
	return e
}

// finishLoad rebuilds the CPPse-index, pinned to st when the snapshot
// carried one. A nil st (snapshots written before the index state was
// recorded) falls back to re-clustering from the restored profiles.
func (e *Engine) finishLoad(st *cppse.State) error {
	if st != nil {
		ix, err := buildIndexFromState(e, *st)
		if err != nil {
			return err
		}
		e.index = ix
	} else if err := e.rebuildIndex(); err != nil {
		return err
	}
	e.trained = true
	return nil
}

// errSnapshot marks every refusal of a malformed streamed snapshot.
var errSnapshot = errors.New("core: malformed snapshot")

// decodeStream reads a streamed snapshot after its magic: the version,
// the head, one user record at a time straight into the engine, and the
// trailer's count, which must end the stream.
func decodeStream(br *bufio.Reader, reconfig func(*Config)) (*Engine, *cppse.State, error) {
	v, err := binary.ReadUvarint(br)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: version: %w", errSnapshot, err)
	}
	if v != snapVersion {
		return nil, nil, fmt.Errorf("core: snapshot version %d not supported (this build reads %d)", v, snapVersion)
	}
	d := &snapReader{Reader: binrec.Reader{Refusal: errSnapshot}, r: br}
	if kind, err := d.next(); err != nil {
		return nil, nil, err
	} else if kind != recHead {
		return nil, nil, fmt.Errorf("%w: record kind %d before the head", errSnapshot, kind)
	}
	var head snapshotHead
	hr := bytes.NewReader(d.Buf)
	if err := gob.NewDecoder(hr).Decode(&head); err != nil {
		return nil, nil, fmt.Errorf("%w: head: %w", errSnapshot, err)
	}
	if hr.Len() != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes in the head", errSnapshot, hr.Len())
	}
	reconfig(&head.Config)
	e := fromHead(&head)
	var users uint64
	for {
		kind, err := d.next()
		if err != nil {
			return nil, nil, err
		}
		switch kind {
		case recUser:
			if err := d.user(e); err != nil {
				return nil, nil, err
			}
			users++
		case recTrailer:
			n := d.Uvarint()
			d.End("the trailer")
			if d.Err != nil {
				return nil, nil, d.Err
			}
			if n != users {
				return nil, nil, fmt.Errorf("%w: trailer counts %d users, stream held %d", errSnapshot, n, users)
			}
			if _, err := br.ReadByte(); err != io.EOF {
				if err == nil {
					err = errors.New("data after the trailer")
				}
				return nil, nil, fmt.Errorf("%w: %w", errSnapshot, err)
			}
			return e, head.Index, nil
		default:
			return nil, nil, fmt.Errorf("%w: unknown record kind %d", errSnapshot, kind)
		}
	}
}

// snapReader decodes one record at a time (binrec.Reader) with the
// stream's name table, plus the events scratch a user record reuses.
type snapReader struct {
	binrec.Reader
	r       *bufio.Reader
	scratch []profile.Event // FromSnapshot copies the events out
}

// next reads one record into the reader and returns its kind; a stream
// that ends before a record starts is truncated.
func (d *snapReader) next() (byte, error) {
	kind, err := d.Next(d.r, maxRecord)
	if err == io.EOF {
		return 0, fmt.Errorf("%w: record kind: %w", errSnapshot, io.ErrUnexpectedEOF)
	}
	return kind, err
}

// events decodes an event list onto the scratch; each event takes at
// least 4 bytes (two name references, an entity count and a timestamp
// delta).
func (d *snapReader) events() []profile.Event {
	n := d.Count(4)
	start := len(d.scratch)
	var prev int64
	for i := 0; i < n && d.Err == nil; i++ {
		var ev profile.Event
		ev.Category = d.Name()
		ev.Producer = d.Name()
		if k := d.Count(1); k > 0 {
			ev.Entities = make([]string, k)
			for j := range ev.Entities {
				ev.Entities[j] = d.Name()
			}
		}
		prev += d.Varint()
		ev.Timestamp = prev
		d.scratch = append(d.scratch, ev)
	}
	return d.scratch[start:]
}

// user decodes one user record into e.
func (d *snapReader) user(e *Engine) error {
	id := d.Str()
	var flags byte
	if d.Err == nil && d.Off < len(d.Buf) {
		flags = d.Buf[d.Off]
		d.Off++
	} else {
		d.Fail("missing flags")
	}
	if flags&^(userHasObs|userHasModel) != 0 {
		d.Fail("unknown user flags")
	}
	ws := d.Uvarint()
	if ws > math.MaxInt32 {
		d.Fail("window size out of range")
	}
	d.scratch = d.scratch[:0]
	long := d.events()
	window := d.events()
	var obs []bihmm.Obs
	if flags&userHasObs != 0 {
		n := d.Count(2)
		obs = make([]bihmm.Obs, n)
		for i := range obs {
			obs[i] = bihmm.Obs{Cat: d.Int(), Z: d.Int()}
			if d.Err == nil && (obs[i].Cat < 0 || obs[i].Cat >= len(e.cfg.Categories)) {
				d.Fail("observation category out of range")
			}
		}
	}
	var m *bihmm.BHMM
	if flags&userHasModel != 0 {
		m = d.model(len(e.cfg.Categories))
	}
	d.End("a user record")
	if d.Err != nil {
		return fmt.Errorf("user record: %w", d.Err)
	}
	if _, dup := e.store.Lookup(id); dup {
		return fmt.Errorf("%w: user %q appears twice", errSnapshot, id)
	}
	e.store.Put(profile.FromSnapshot(profile.Snapshot{UserID: id, WindowSize: int(ws), LongTerm: long, Window: window}))
	if flags&userHasObs != 0 {
		e.consumerObs[id] = obs
	}
	if m != nil {
		e.consumers[id] = m
	}
	return nil
}

// model decodes a consumer BiHMM whose rows share one slab.
func (d *snapReader) model(cats int) *bihmm.BHMM {
	nu, nz, mc := d.Count(1), d.Count(1), d.Count(1)
	if d.Err != nil {
		return nil
	}
	if nu == 0 || mc != cats {
		d.Fail("model dimensions do not match the engine")
		return nil
	}
	slots := (nz + 1) * nu
	if slots > (len(d.Buf)-d.Off)/8 || nu+slots*(nu+mc) > (len(d.Buf)-d.Off)/8 {
		d.Fail("model exceeds the record")
		return nil
	}
	slab := make([]float64, nu+slots*(nu+mc))
	d.Floats(slab)
	m := &bihmm.BHMM{NU: nu, NZ: nz, M: mc, Pi: slab[:nu:nu],
		A: make([][][]float64, nz+1), B: make([][][]float64, nz+1)}
	rest := slab[nu:]
	cut := func(n int) []float64 {
		row := rest[:n:n]
		rest = rest[n:]
		return row
	}
	for _, side := range []struct {
		rows  [][][]float64
		width int
	}{{m.A, nu}, {m.B, mc}} {
		for z := range side.rows {
			side.rows[z] = make([][]float64, nu)
			for i := range side.rows[z] {
				side.rows[z][i] = cut(side.width)
			}
		}
	}
	return m
}

// engineSnapshot is the legacy on-disk form: one gob value inside gzip,
// read (never written) so snapshots and checkpoints from before the
// streamed format keep loading. A nil Index (snapshots written before
// the field existed) falls back to re-clustering.
type engineSnapshot struct {
	Config      Config
	Profiles    []profile.Snapshot
	Background  profile.BackgroundSnapshot
	Expander    entity.ExpanderSnapshot
	Producers   bihmm.LayerSnapshot
	ConsumerObs map[string][]bihmm.Obs
	Consumers   map[string]*bihmm.BHMM
	Population  *bihmm.BHMM
	ItemZ       map[string]int
	ProdPos     map[string]int
	Index       *cppse.State
}

// decodeSnapshot reads a legacy snapshot: gzip inflate and gob decode.
func decodeSnapshot(r io.Reader) (*engineSnapshot, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("core: gzip open: %w", err)
	}
	defer gz.Close()
	snap := new(engineSnapshot)
	if err := gob.NewDecoder(gz).Decode(snap); err != nil {
		return nil, fmt.Errorf("core: decode engine: %w", err)
	}
	return snap, nil
}

// rebuildIndex reconstructs the CPPse-index from the current profile and
// model state (used after LoadFrom, and available for periodic
// re-clustering).
func (e *Engine) rebuildIndex() error {
	ix, err := buildIndex(e)
	if err != nil {
		return err
	}
	e.index = ix
	return nil
}

// RebuildIndex re-clusters users and rebuilds the index from scratch —
// periodic maintenance for when incremental block assignment has drifted
// far from the one-pass clustering optimum.
func (e *Engine) RebuildIndex() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.trained {
		return fmt.Errorf("core: engine not trained")
	}
	e.flushUpdatesLocked()
	return e.rebuildIndex()
}

// SaveFile / LoadFile are path-based conveniences.
func (e *Engine) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: create %s: %w", path, err)
	}
	if err := e.SaveTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads an engine from path.
func LoadFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", path, err)
	}
	defer f.Close()
	return LoadFrom(f)
}
