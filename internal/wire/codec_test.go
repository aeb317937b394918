package wire

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// codecSample has one field of every kind a walk can move.
type codecSample struct {
	U     uint64
	V     int64
	I     int
	Side  query.Side
	B     bool
	S     string
	Raw   []byte
	Val   relation.Value
	Names []string
	Times []int64
	View  *MemberView
}

func (s *codecSample) walk(c *Codec) {
	c.Uvarint(&s.U)
	c.Varint(&s.V)
	c.Int(&s.I)
	c.Side(&s.Side)
	c.Bool(&s.B)
	c.String(&s.S)
	c.Bytes(&s.Raw)
	c.Value(&s.Val)
	c.Strings(&s.Names)
	Count(c, &s.Times)
	for i := range s.Times {
		c.Varint(&s.Times[i])
	}
	c.MemberView(&s.View)
}

func TestCodecModesAgree(t *testing.T) {
	in := codecSample{
		U: 1 << 40, V: -300, I: 7, Side: query.SideRight, B: true, S: "héllo", Raw: []byte{0, 1, 2},
		Val: relation.N(-2.5), Names: []string{"a", "", "ccc"}, Times: []int64{-1, 0, 1 << 20},
		View: &MemberView{Version: 3, Origin: "x:1", Procs: []string{"x:1", "y:2"}},
	}
	var sizer Codec
	in.walk(&sizer)
	var w Buffer
	enc := NewEncoder(&w)
	in.walk(&enc)
	w = enc.Buffer()
	if enc.Err() != nil || sizer.Len() != w.Len() {
		t.Fatalf("sized %d bytes, encoded %d (err %v)", sizer.Len(), w.Len(), enc.Err())
	}

	r := NewReader(w.Bytes())
	dec := NewDecoder(r, nil)
	var out codecSample
	out.walk(&dec)
	if *r = dec.Reader(); dec.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", dec.Err(), r.Remaining())
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}

	// A truncated input fails once: the first error sticks, and the fields
	// after it are left as they were.
	short := NewDecoder(NewReader(w.Bytes()[:3]), nil)
	cut := codecSample{S: "untouched"}
	cut.walk(&short)
	if short.Err() == nil || !strings.Contains(short.Err().Error(), "truncated") {
		t.Fatalf("truncated decode: err %v", short.Err())
	}
	if cut.S != "untouched" || cut.Names != nil {
		t.Fatalf("fields after the error were written: %+v", cut)
	}
}

func TestSizeVarintsMatchEncoding(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		if got, want := SizeUvarint(v), len(binary.AppendUvarint(nil, v)); got != want {
			t.Errorf("SizeUvarint(%d) = %d, encoding has %d bytes", v, got, want)
		}
		if got, want := SizeVarint(int64(v)), len(binary.AppendVarint(nil, int64(v))); got != want {
			t.Errorf("SizeVarint(%d) = %d, encoding has %d bytes", int64(v), got, want)
		}
	}
}
