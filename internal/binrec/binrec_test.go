package binrec

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

var errTest = errors.New("test: malformed")

// TestRoundTrip writes every primitive into two records of one stream
// and reads them back: names refer across records until the table is
// reset, and floats keep their bits.
func TestRoundTrip(t *testing.T) {
	var w Writer
	var stream []byte
	w.Byte(7)
	w.Uvarint(1 << 40)
	w.Varint(-5)
	w.Str("plain")
	w.Name("a")
	w.Name("b")
	w.Name("a")
	w.Floats([]float64{math.Inf(-1), math.Copysign(0, -1)})
	w.Float(math.NaN())
	stream = AppendRecord(stream, 1, w.Buf)
	w.Reset()
	w.Name("b") // still in the table: one byte
	if len(w.Buf) != 1 {
		t.Fatalf("a known name took %d bytes", len(w.Buf))
	}
	stream = AppendRecord(stream, 2, w.Buf)
	w.Reset()
	w.ResetNames()
	w.Name("b") // inline again
	stream = AppendRecord(stream, 3, w.Buf)

	d := Reader{Refusal: errTest}
	br := bufio.NewReader(bytes.NewReader(stream))
	if kind, err := d.Next(br, 1<<10); err != nil || kind != 1 {
		t.Fatalf("first record: kind %d, err %v", kind, err)
	}
	if d.Byte() != 7 || d.Uvarint() != 1<<40 || d.Varint() != -5 || d.Str() != "plain" ||
		d.Name() != "a" || d.Name() != "b" || d.Name() != "a" {
		t.Fatalf("scalars did not round-trip: %v", d.Err)
	}
	fs := make([]float64, 2)
	d.Floats(fs)
	nan := d.Float()
	d.End("the first record")
	if d.Err != nil || !math.IsInf(fs[0], -1) || !math.Signbit(fs[1]) || !math.IsNaN(nan) {
		t.Fatalf("floats did not keep their bits: %v %v (%v)", fs, nan, d.Err)
	}
	if kind, err := d.Next(br, 1<<10); err != nil || kind != 2 {
		t.Fatalf("second record: kind %d, err %v", kind, err)
	}
	if d.Name() != "b" {
		t.Fatalf("a name table kept across records lost its names: %v", d.Err)
	}
	d.ResetNames()
	if kind, err := d.Next(br, 1<<10); err != nil || kind != 3 || d.Name() != "b" || d.Err != nil {
		t.Fatalf("inline name after a reset: kind %d, err %v, %v", kind, err, d.Err)
	}
	if _, err := d.Next(br, 1<<10); err != io.EOF {
		t.Fatalf("clean end: err %v, want io.EOF", err)
	}
}

// TestReaderRefusals: every malformed input is refused, sticky and
// wrapping the caller's refusal, and lengths are checked before anything
// is allocated for them.
func TestReaderRefusals(t *testing.T) {
	for name, c := range map[string]struct {
		payload []byte
		read    func(d *Reader)
		want    string
	}{
		"count":     {[]byte{5, 1, 2}, func(d *Reader) { d.Count(1) }, "count exceeds the record"},
		"string":    {[]byte{3, 'a'}, func(d *Reader) { d.Str() }, "count exceeds the record"},
		"reference": {[]byte{2}, func(d *Reader) { d.Name() }, "unknown name reference"},
		"uvarint":   {[]byte{0x80}, func(d *Reader) { d.Uvarint() }, "bad uvarint"},
		"float":     {[]byte{1, 2, 3}, func(d *Reader) { d.Float() }, "float exceeds the record"},
		"floats":    {make([]byte, 15), func(d *Reader) { d.Floats(make([]float64, 2)) }, "floats exceed the record"},
		"byte":      {nil, func(d *Reader) { d.Byte() }, "missing byte"},
		"trailing":  {[]byte{1, 2}, func(d *Reader) { d.Byte(); d.End("the record") }, "trailing bytes in the record"},
	} {
		t.Run(name, func(t *testing.T) {
			d := Reader{Refusal: errTest}
			if _, err := d.Next(bufio.NewReader(bytes.NewReader(AppendRecord(nil, 1, c.payload))), 1<<10); err != nil {
				t.Fatal(err)
			}
			c.read(&d)
			if !errors.Is(d.Err, errTest) || !strings.Contains(d.Err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", d.Err, c.want)
			}
			first := d.Err
			if d.Uvarint() != 0 || d.Str() != "" || d.Err != first {
				t.Fatal("a read after a refusal returned data or replaced the error")
			}
		})
	}

	d := Reader{Refusal: errTest}
	for name, c := range map[string]struct {
		stream []byte
		want   string
	}{
		"cap":       {AppendHeader(nil, 1, 11), "is 11 bytes, cap 10"},
		"truncated": {append(AppendHeader(nil, 1, 8), 1, 2), "unexpected EOF"},
		"length":    {[]byte{1, 0x80}, "record length"},
	} {
		_, err := d.Next(bufio.NewReader(bytes.NewReader(c.stream)), 10)
		if !errors.Is(err, errTest) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", name, err, c.want)
		}
	}
}
