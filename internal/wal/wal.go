// Package wal is the durable ingest log: every admitted micro-batch
// (observation batches and item registrations — the atomic replication
// units the routing layer already broadcasts) is appended as one
// checksummed record to a segmented on-disk log before it is applied.
// Recovery is checkpoint + delta tail: boot loads the latest snapshot
// checkpoint, then replays every record past the checkpoint sequence. A
// torn final record (the only corruption a crash can produce, since
// records are written append-only) is detected by its CRC and truncated
// away; it was never acknowledged, so dropping it preserves exactness.
//
// The log knows nothing about the wire protocol: payloads are opaque
// bytes. Durable (durable.go) is the one writer every daemon uses: it
// owns the log, the engine and the append+apply mutex, encodes each batch
// with the payload codec (payload.go) and recovers with Recover.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Policy selects when appended records are fsynced to stable storage.
type Policy string

const (
	// PolicyBatch fsyncs after every appended batch: an acknowledged
	// write is durable. The default, and the only policy under which the
	// crash-recovery exactness argument holds unconditionally.
	PolicyBatch Policy = "batch"
	// PolicyInterval fsyncs on a background cadence: a crash can lose
	// the last interval's worth of acknowledged batches.
	PolicyInterval Policy = "interval"
	// PolicyOff never fsyncs: durability is whatever the OS page cache
	// survives. For benchmarking the append overhead in isolation.
	PolicyOff Policy = "off"
)

// ParsePolicy maps a flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyBatch, PolicyInterval, PolicyOff:
		return Policy(s), nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want batch, interval, or off)", s)
}

// Kind tags what a record's payload decodes to.
type Kind uint8

const (
	// KindObserve is an admitted observation micro-batch.
	KindObserve Kind = 1
	// KindRegister is an admitted item-registration batch.
	KindRegister Kind = 2
)

// Record is one logged micro-batch.
type Record struct {
	// Seq is the batch sequence, contiguous from 1 per log.
	Seq uint64
	// Kind tags the payload codec.
	Kind Kind
	// Payload is the encoded batch (see payload.go).
	Payload []byte
}

// Sentinel errors. ErrTruncated marks an incomplete record at a segment
// tail (tolerated: the tail is truncated on recovery); ErrCorrupt marks
// a record whose checksum or framing is invalid.
var (
	ErrTruncated = errors.New("wal: truncated record")
	ErrCorrupt   = errors.New("wal: corrupt record")
	ErrClosed    = errors.New("wal: log closed")
)

// Record framing: u32 length of body, u32 CRC-32C of body, then the
// body = u64 sequence, u8 kind, payload. All integers little-endian.
const (
	recordHeader = 8
	bodyHeader   = 9
	// maxBody bounds one record's body so a corrupt length field cannot
	// drive a giant allocation (64 MiB, matching the RPC body cap).
	maxBody = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeRecord frames a record for appending.
func EncodeRecord(seq uint64, kind Kind, payload []byte) []byte {
	body := make([]byte, bodyHeader+len(payload))
	binary.LittleEndian.PutUint64(body, seq)
	body[8] = byte(kind)
	copy(body[bodyHeader:], payload)
	buf := make([]byte, recordHeader+len(body))
	binary.LittleEndian.PutUint32(buf, uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(body, castagnoli))
	copy(buf[recordHeader:], body)
	return buf
}

// DecodeRecord parses one record from the front of b, returning the
// record and the number of bytes consumed. ErrTruncated means b ends
// mid-record (tolerable at a segment tail); ErrCorrupt means the
// framing or checksum is invalid.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < recordHeader {
		return Record{}, 0, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(b)
	if n < bodyHeader || n > maxBody {
		return Record{}, 0, fmt.Errorf("%w: body length %d", ErrCorrupt, n)
	}
	if len(b) < recordHeader+int(n) {
		return Record{}, 0, ErrTruncated
	}
	body := b[recordHeader : recordHeader+int(n)]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(b[4:]); got != want {
		return Record{}, 0, fmt.Errorf("%w: checksum %08x != %08x", ErrCorrupt, got, want)
	}
	rec := Record{
		Seq:     binary.LittleEndian.Uint64(body),
		Kind:    Kind(body[8]),
		Payload: append([]byte(nil), body[bodyHeader:]...),
	}
	return rec, recordHeader + int(n), nil
}

// Options configures Open.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// Policy is the fsync policy; empty means PolicyBatch.
	Policy Policy
	// SyncInterval is the PolicyInterval cadence; <= 0 means 100ms.
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment past this size; <= 0
	// means 8 MiB.
	SegmentBytes int64
}

// Stats snapshots the log. Its JSON form is the one wire form of the
// wal block in /v2/stats and /shard/v1/stats.
type Stats struct {
	Dir             string  `json:"dir"`
	Policy          Policy  `json:"fsync_policy"`
	Segments        int     `json:"segments"`       // segment files, including the active one
	Bytes           int64   `json:"bytes"`          // total segment bytes
	LastSeq         uint64  `json:"last_seq"`       // last appended (or recovered) sequence, 0 when empty
	CheckpointSeq   uint64  `json:"checkpoint_seq"` // sequence the latest checkpoint covers through
	HasCheckpoint   bool    `json:"has_checkpoint"`
	CheckpointAgeMs float64 `json:"checkpoint_age_ms"` // age of the latest checkpoint, 0 when none
	Appends         uint64  `json:"appends"`
	Syncs           uint64  `json:"syncs"`
	Checkpoints     uint64  `json:"checkpoints"`
}

type segInfo struct {
	path  string
	first uint64 // from the file name: sequence of its first record
	last  uint64 // last valid record's sequence (0 when empty)
	bytes int64
}

// Log is an open write-ahead log. Append/Checkpoint/Stats are safe for
// concurrent use; Replay is for boot, before serving writes.
type Log struct {
	mu  sync.Mutex
	dir string
	opt Options

	seg      *os.File // active segment
	segStart uint64
	segBytes int64
	sealed   []segInfo

	nextSeq  uint64
	ckptSeq  uint64
	ckptPath string
	ckptAt   time.Time
	hasCkpt  bool

	appends, syncs, ckpts uint64
	dirty                 bool
	closed                bool
	stopSync              chan struct{}
	syncDone              chan struct{}
}

// Open opens (or creates) the log in opt.Dir, recovering its state:
// stale temp files are removed, only the newest checkpoint is kept, and
// a torn record at the last segment's tail is truncated away.
func Open(opt Options) (*Log, error) {
	if opt.Dir == "" {
		return nil, errors.New("wal: Options.Dir required")
	}
	if opt.Policy == "" {
		opt.Policy = PolicyBatch
	}
	if _, err := ParsePolicy(string(opt.Policy)); err != nil {
		return nil, err
	}
	if opt.SyncInterval <= 0 {
		opt.SyncInterval = 100 * time.Millisecond
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 8 << 20
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: opt.Dir, opt: opt, nextSeq: 1}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if err := l.openActive(); err != nil {
		return nil, err
	}
	if opt.Policy == PolicyInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// recover scans the directory: prunes temp files and stale checkpoints,
// validates every segment, and truncates a torn tail. A corrupt record
// anywhere but the final segment's tail is an error — append-only
// crashes cannot produce one, so it signals real damage.
func (l *Log) recover() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var ckpts []segInfo
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(l.dir, name)
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(path)
		case strings.HasSuffix(name, ".ckpt"):
			seq, perr := parseSeqName(name, ".ckpt")
			if perr != nil {
				continue
			}
			ckpts = append(ckpts, segInfo{path: path, first: seq})
		case strings.HasSuffix(name, ".wal"):
			seq, perr := parseSeqName(name, ".wal")
			if perr != nil {
				continue
			}
			l.sealed = append(l.sealed, segInfo{path: path, first: seq})
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].first < ckpts[j].first })
	for i, c := range ckpts {
		if i < len(ckpts)-1 {
			os.Remove(c.path)
			continue
		}
		l.ckptSeq, l.ckptPath, l.hasCkpt = c.first, c.path, true
		if fi, serr := os.Stat(c.path); serr == nil {
			l.ckptAt = fi.ModTime()
		}
	}
	sort.Slice(l.sealed, func(i, j int) bool { return l.sealed[i].first < l.sealed[j].first })
	maxSeq := l.ckptSeq
	for i := range l.sealed {
		s := &l.sealed[i]
		last, valid, total, serr := scanSegment(s.path)
		if serr != nil {
			if i < len(l.sealed)-1 {
				return fmt.Errorf("wal: segment %s: %w", filepath.Base(s.path), serr)
			}
			// Torn tail on the final segment: drop the unacknowledged
			// remainder.
			if terr := os.Truncate(s.path, valid); terr != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(s.path), terr)
			}
			total = valid
		}
		s.last, s.bytes = last, total
		if last > maxSeq {
			maxSeq = last
		}
	}
	l.nextSeq = maxSeq + 1
	return nil
}

// openActive reuses the newest segment as the append target, or starts
// a fresh one named after the next sequence.
func (l *Log) openActive() error {
	if n := len(l.sealed); n > 0 && l.sealed[n-1].bytes < l.opt.SegmentBytes {
		s := l.sealed[n-1]
		f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.seg, l.segStart, l.segBytes = f, s.first, s.bytes
		l.sealed = l.sealed[:n-1]
		return nil
	}
	return l.newSegment()
}

// newSegment seals the active segment (if any) and starts the next one.
// Caller holds mu (or is Open, before the log is shared).
func (l *Log) newSegment() error {
	if l.seg != nil {
		if l.opt.Policy != PolicyOff {
			if err := l.seg.Sync(); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.syncs++
		}
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.sealed = append(l.sealed, segInfo{path: l.seg.Name(), first: l.segStart, last: l.nextSeq - 1, bytes: l.segBytes})
	}
	path := filepath.Join(l.dir, fmt.Sprintf("%016x.wal", l.nextSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.seg, l.segStart, l.segBytes = f, l.nextSeq, 0
	l.dirty = true // directory entry needs a sync
	syncDir(l.dir)
	return nil
}

func parseSeqName(name, ext string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSuffix(name, ext), 16, 64)
}

// scanSegment validates a segment file, returning the last record's
// sequence, the byte offset of the end of the last valid record, and
// the file size. A non-nil error means the file has invalid bytes past
// the valid prefix (err wraps ErrTruncated or ErrCorrupt).
func scanSegment(path string) (last uint64, valid int64, total int64, err error) {
	b, rerr := os.ReadFile(path)
	if rerr != nil {
		return 0, 0, 0, rerr
	}
	total = int64(len(b))
	off := 0
	for off < len(b) {
		rec, n, derr := DecodeRecord(b[off:])
		if derr != nil {
			return last, int64(off), total, derr
		}
		last = rec.Seq
		off += n
	}
	return last, int64(off), total, nil
}

// syncDir fsyncs a directory so renames and creates survive a crash.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Append logs one batch, assigning and returning its sequence. Under
// PolicyBatch the record is on stable storage when Append returns.
func (l *Log) Append(kind Kind, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(payload) > maxBody-bodyHeader {
		return 0, fmt.Errorf("wal: payload %d bytes exceeds %d limit", len(payload), maxBody-bodyHeader)
	}
	seq := l.nextSeq
	buf := EncodeRecord(seq, kind, payload)
	if _, err := l.seg.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.nextSeq++
	l.segBytes += int64(len(buf))
	l.appends++
	l.dirty = true
	if l.opt.Policy == PolicyBatch {
		if err := l.seg.Sync(); err != nil {
			return 0, fmt.Errorf("wal: %w", err)
		}
		l.syncs++
		l.dirty = false
	}
	if l.segBytes >= l.opt.SegmentBytes {
		if err := l.newSegment(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Sync forces an fsync of the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed || l.seg == nil || !l.dirty {
		return nil
	}
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.syncs++
	l.dirty = false
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opt.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			l.syncLocked()
			l.mu.Unlock()
		}
	}
}

// Replay streams every record with sequence >= from, in order, to fn.
// Boot-time only: it holds the log lock for the duration.
func (l *Log) Replay(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	segs := append(append([]segInfo(nil), l.sealed...),
		segInfo{path: l.seg.Name(), first: l.segStart, last: l.nextSeq - 1, bytes: l.segBytes})
	for _, s := range segs {
		if s.last != 0 && s.last < from {
			continue
		}
		b, err := os.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		off := 0
		for off < len(b) {
			rec, n, derr := DecodeRecord(b[off:])
			if derr != nil {
				return fmt.Errorf("wal: segment %s offset %d: %w", filepath.Base(s.path), off, derr)
			}
			off += n
			if rec.Seq < from {
				continue
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Checkpoint atomically installs a new snapshot covering every sequence
// appended so far (write receives the destination), then compacts: all
// segment records are now redundant, so segment files are deleted and a
// fresh active segment starts. Appends are blocked for the duration —
// callers serialise Checkpoint against their own append+apply sections
// so the snapshot and the sequence watermark agree.
func (l *Log) Checkpoint(write func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	seq := l.nextSeq - 1
	tmp, err := os.CreateTemp(l.dir, "ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: %w", err)
	}
	path := filepath.Join(l.dir, fmt.Sprintf("%016x.ckpt", seq))
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(l.dir)
	if l.hasCkpt && l.ckptPath != path {
		os.Remove(l.ckptPath)
	}
	l.ckptSeq, l.ckptPath, l.ckptAt, l.hasCkpt = seq, path, time.Now(), true
	l.ckpts++
	// Compact: every logged record is covered by the new checkpoint.
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	os.Remove(l.seg.Name())
	for _, s := range l.sealed {
		os.Remove(s.path)
	}
	l.sealed, l.seg = nil, nil
	if err := l.newSegment(); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// latestCheckpoint opens the newest checkpoint for reading, returning
// the sequence it covers through. ok is false when none exists.
func (l *Log) latestCheckpoint() (r io.ReadCloser, seq uint64, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.hasCkpt {
		return nil, 0, false, nil
	}
	f, err := os.Open(l.ckptPath)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: %w", err)
	}
	return f, l.ckptSeq, true, nil
}

// Stats snapshots the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Dir:           l.dir,
		Policy:        l.opt.Policy,
		Segments:      len(l.sealed),
		LastSeq:       l.nextSeq - 1,
		CheckpointSeq: l.ckptSeq,
		HasCheckpoint: l.hasCkpt,
		Appends:       l.appends,
		Syncs:         l.syncs,
		Checkpoints:   l.ckpts,
	}
	for _, s := range l.sealed {
		st.Bytes += s.bytes
	}
	if l.seg != nil {
		st.Segments++
		st.Bytes += l.segBytes
	}
	if l.hasCkpt {
		st.CheckpointAgeMs = float64(time.Since(l.ckptAt)) / float64(time.Millisecond)
	}
	return st
}

// Close syncs and closes the log. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	if cerr := l.seg.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	l.closed = true
	stop, done := l.stopSync, l.syncDone
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}
