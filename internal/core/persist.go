package core

import (
	"bufio"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"ssrec/internal/bihmm"
	"ssrec/internal/cppse"
	"ssrec/internal/entity"
	"ssrec/internal/model"
	"ssrec/internal/profile"
)

// engineSnapshot is the on-disk form of a trained Engine: every learned
// component plus the raw profile state. The bulk of the CPPse-index is
// NOT serialised — universes, trees, leaves and the hash table are pure
// functions of the profile/model state and are rebuilt on load, which
// keeps the wire format small and forward-compatible with index-layout
// changes. The one exception is Index: the block clustering and user →
// block assignments are path-dependent (one-pass clustering over the
// profiles as they were at build time, plus incremental nearest-centroid
// assignments since), so they ride along and pin the rebuild. A nil
// Index (snapshots written before the field existed) falls back to
// re-clustering from the restored profiles.
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

// SaveTo serialises the trained engine as gzip-compressed gob. It returns
// an error if the engine has not been trained.
func (e *Engine) SaveTo(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.trained {
		return fmt.Errorf("core: cannot save an untrained engine")
	}
	e.flushUpdatesLocked()
	snap := engineSnapshot{
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
	if e.index != nil {
		st := e.index.State()
		snap.Index = &st
	}
	e.store.Each(func(p *profile.Profile) {
		snap.Profiles = append(snap.Profiles, p.Snapshot())
	})
	gz := gzip.NewWriter(w)
	if err := gob.NewEncoder(gz).Encode(snap); err != nil {
		return fmt.Errorf("core: encode engine: %w", err)
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("core: gzip close: %w", err)
	}
	return nil
}

// LoadFrom deserialises an engine previously written by SaveTo and rebuilds
// the CPPse-index, returning a ready-to-serve engine.
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
		c.Partition = model.Partition{}
	})
}

// LoadPartitionFrom deserialises a snapshot as shard idx of a deployment
// partitioned by the versioned block table p — the boot path of an online
// reshard: any healthy shard's snapshot (it carries the complete
// replicated state) seeds any slot of the NEW epoch, rebuilding only the
// leaves p assigns to idx. The snapshot's own shard identity is
// overridden entirely.
func LoadPartitionFrom(r io.Reader, idx int, p model.Partition) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= p.Shards {
		return nil, fmt.Errorf("core: shard index %d out of range [0,%d)", idx, p.Shards)
	}
	return loadFrom(r, func(c *Config) {
		c.ShardIndex, c.ShardCount = idx, p.Shards
		c.Partition = p
	})
}

func loadFrom(r io.Reader, reconfig func(*Config)) (*Engine, error) {
	snap, err := decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	reconfig(&snap.Config)
	return restore(snap)
}

// decodeSnapshot reads a SaveTo stream: gzip inflate and gob decode.
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

// restore turns a decoded snapshot into a ready-to-serve engine: it adopts
// the learned components and profiles and rebuilds the CPPse-index.
func restore(snap *engineSnapshot) (*Engine, error) {
	e := New(snap.Config)
	e.bg = profile.BackgroundFromSnapshot(snap.Background)
	e.expander = entity.ExpanderFromSnapshot(snap.Expander)
	e.producers = bihmm.LayerFromSnapshot(snap.Producers)
	e.consumerObs = snap.ConsumerObs
	if e.consumerObs == nil {
		e.consumerObs = make(map[string][]bihmm.Obs)
	}
	e.consumers = snap.Consumers
	if e.consumers == nil {
		e.consumers = make(map[string]*bihmm.BHMM)
	}
	e.population = snap.Population
	e.itemZ = snap.ItemZ
	if e.itemZ == nil {
		e.itemZ = make(map[string]int)
	}
	e.prodPos = snap.ProdPos
	if e.prodPos == nil {
		e.prodPos = make(map[string]int)
	}
	for _, ps := range snap.Profiles {
		restored := profile.FromSnapshot(ps)
		*e.store.Get(ps.UserID) = *restored
	}
	if snap.Index != nil {
		ix, err := buildIndexFromState(e, *snap.Index)
		if err != nil {
			return nil, err
		}
		e.index = ix
	} else if err := e.rebuildIndex(); err != nil {
		return nil, err
	}
	e.trained = true
	return e, nil
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
	bw := bufio.NewWriter(f)
	if err := e.SaveTo(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("core: flush %s: %w", path, err)
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
	return LoadFrom(bufio.NewReader(f))
}
