// Package binrec is the binary record codec under the engine snapshot
// (core) and the shard RPC frames (shardrpc): the primitives both formats
// are built from, and nothing about either format's records.
//
// A record is a kind byte, a uvarint payload length and the payload. A
// payload is a sequence of
//
//   - uvarints and zig-zag varints (encoding/binary);
//   - strings, each a uvarint length and the bytes;
//   - names, through a table the writer and reader build alike: a name's
//     first occurrence is written inline as reference 0 followed by the
//     string and takes the next id, later ones are written as id+1. The
//     caller decides the table's scope (a whole snapshot stream, or one
//     RPC frame) by when it resets it;
//   - floats as raw little-endian IEEE-754 bits, so every value,
//     ±Inf and NaN included, round-trips exactly.
//
// The Reader is defensive: its errors are sticky, every length it reads
// is checked against the bytes left in the record before anything is
// allocated for it, and a record's length is checked against the
// caller's cap before a payload byte is read.
package binrec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// MaxHeader is the longest record header: the kind byte and a uvarint.
const MaxHeader = 1 + binary.MaxVarintLen64

// AppendHeader appends the header of a record of kind whose payload is n
// bytes long.
func AppendHeader(dst []byte, kind byte, n int) []byte {
	return binary.AppendUvarint(append(dst, kind), uint64(n))
}

// AppendRecord appends one whole record: kind, length and payload.
func AppendRecord(dst []byte, kind byte, payload []byte) []byte {
	return append(AppendHeader(dst, kind, len(payload)), payload...)
}

// Writer builds one record payload at a time in Buf. The zero value is
// ready to use.
type Writer struct {
	Buf   []byte
	names map[string]uint64
}

// Reset empties the payload; the name table is kept.
func (w *Writer) Reset() { w.Buf = w.Buf[:0] }

// ResetNames empties the name table, keeping its storage.
func (w *Writer) ResetNames() { clear(w.names) }

func (w *Writer) Byte(b byte)      { w.Buf = append(w.Buf, b) }
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }
func (w *Writer) Varint(v int64)   { w.Buf = binary.AppendVarint(w.Buf, v) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Name writes s through the name table.
func (w *Writer) Name(s string) {
	if id, ok := w.names[s]; ok {
		w.Uvarint(id + 1)
		return
	}
	if w.names == nil {
		w.names = make(map[string]uint64)
	}
	w.names[s] = uint64(len(w.names))
	w.Uvarint(0)
	w.Str(s)
}

// Float writes f's raw bits.
func (w *Writer) Float(f float64) {
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(f))
}

// Floats writes each value's raw bits, with no count.
func (w *Writer) Floats(fs []float64) {
	for _, f := range fs {
		w.Float(f)
	}
}

// Reader decodes one record at a time from Buf, which Next reuses across
// records. Decoding errors are sticky: the first one lands in Err, and
// every later read returns zero.
type Reader struct {
	// Refusal is wrapped by every error the Reader makes, so a caller's
	// errors.Is sees a malformed input as its own kind of refusal.
	Refusal error

	Buf   []byte
	Off   int
	Err   error
	names []string
}

// ResetNames empties the name table.
func (d *Reader) ResetNames() { d.names = d.names[:0] }

// eof reports a stream that ended early as io.ErrUnexpectedEOF.
func eof(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Next reads one record from r into Buf and returns its kind. It returns
// io.EOF, unwrapped, when r ends cleanly before a record starts. The
// length is checked against max first, and Buf grows only as payload
// bytes actually arrive, so a lying length costs no more than the bytes
// behind it.
func (d *Reader) Next(r *bufio.Reader, max int) (byte, error) {
	kind, err := r.ReadByte()
	if err == io.EOF {
		return 0, io.EOF
	}
	if err != nil {
		return 0, fmt.Errorf("%w: record kind: %w", d.Refusal, err)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("%w: record length: %w", d.Refusal, eof(err))
	}
	if n > uint64(max) {
		return 0, fmt.Errorf("%w: record of kind %d is %d bytes, cap %d", d.Refusal, kind, n, max)
	}
	d.Buf, d.Off, d.Err = d.Buf[:0], 0, nil
	for uint64(len(d.Buf)) < n {
		have := len(d.Buf)
		step := 64 << 10
		if left := n - uint64(have); left < uint64(step) {
			step = int(left)
		}
		d.Buf = slices.Grow(d.Buf, step)[:have+step]
		if _, err := io.ReadFull(r, d.Buf[have:]); err != nil {
			return 0, fmt.Errorf("%w: record of kind %d: %w", d.Refusal, kind, eof(err))
		}
	}
	return kind, nil
}

// Fail records msg as the error, unless one is already recorded.
func (d *Reader) Fail(msg string) {
	if d.Err == nil {
		d.Err = fmt.Errorf("%w: %s at byte %d of a record", d.Refusal, msg, d.Off)
	}
}

// End refuses bytes left over after the record's last field; what names
// the record in the message.
func (d *Reader) End(what string) {
	if d.Err == nil && d.Off != len(d.Buf) {
		d.Fail("trailing bytes in " + what)
	}
}

// Byte reads one byte.
func (d *Reader) Byte() byte {
	if d.Err != nil {
		return 0
	}
	if d.Off >= len(d.Buf) {
		d.Fail("missing byte")
		return 0
	}
	b := d.Buf[d.Off]
	d.Off++
	return b
}

func (d *Reader) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.Buf[d.Off:])
	if n <= 0 {
		d.Fail("bad uvarint")
		return 0
	}
	d.Off += n
	return v
}

func (d *Reader) Varint() int64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Varint(d.Buf[d.Off:])
	if n <= 0 {
		d.Fail("bad varint")
		return 0
	}
	d.Off += n
	return v
}

// Int reads a varint that must fit an int.
func (d *Reader) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Fail("integer out of range")
		return 0
	}
	return int(v)
}

// Count reads a length whose elements take at least size bytes each and
// refuses one the rest of the record cannot hold, before the caller
// allocates for it.
func (d *Reader) Count(size int) int {
	n := d.Uvarint()
	if d.Err == nil && n > uint64(len(d.Buf)-d.Off)/uint64(size) {
		d.Fail("count exceeds the record")
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (d *Reader) Str() string {
	n := d.Count(1)
	if d.Err != nil {
		return ""
	}
	s := string(d.Buf[d.Off : d.Off+n])
	d.Off += n
	return s
}

// Name reads a name through the name table.
func (d *Reader) Name() string {
	ref := d.Uvarint()
	switch {
	case d.Err != nil:
		return ""
	case ref == 0:
		s := d.Str()
		if d.Err == nil {
			d.names = append(d.names, s)
		}
		return s
	case ref > uint64(len(d.names)):
		d.Fail("unknown name reference")
		return ""
	}
	return d.names[ref-1]
}

// Float reads one value's raw bits.
func (d *Reader) Float() float64 {
	if d.Err != nil {
		return 0
	}
	if len(d.Buf)-d.Off < 8 {
		d.Fail("float exceeds the record")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.Buf[d.Off:]))
	d.Off += 8
	return f
}

// Floats fills dst with raw IEEE-754 values.
func (d *Reader) Floats(dst []float64) {
	if d.Err != nil {
		return
	}
	if len(dst) > (len(d.Buf)-d.Off)/8 {
		d.Fail("floats exceed the record")
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.Buf[d.Off:]))
		d.Off += 8
	}
}
