package wire

import (
	"fmt"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Codec runs one walk over a message's fields in one of three modes: it
// sizes, encodes or decodes them. A message type describes its layout
// once, as a walk that hands each field to a Codec method in wire order,
// and sizing, encoding and decoding all run that same walk, so the three
// cannot disagree.
//
// Field methods take a pointer to the field. Sizing and encoding only read
// through it, since other goroutines may hold the message being walked;
// decoding stores the value it reads. The first error sticks: later field
// methods do nothing, and Err reports it. The zero Codec sizes.
//
// Walks call field methods directly and loop over slices with a plain
// for statement after Count. Passing the Codec through a func value or an
// interface method would move it to the heap, and every Size would then
// allocate one. For the same reason a Codec holds its buffer or reader by
// value, not by pointer: decoding hands the catalog to the query parser,
// which keeps it, and the compiler then treats every pointer the Codec
// holds as kept too, so a caller's Buffer or Reader would move to the heap.
type Codec struct {
	mode    codecMode
	n       int
	w       Buffer
	r       Reader
	catalog *relation.Catalog
	err     error
}

type codecMode uint8

const (
	sizing codecMode = iota
	encoding
	decoding
)

// NewEncoder returns a Codec that appends the fields it walks to a copy of
// w; Buffer returns the result.
func NewEncoder(w *Buffer) Codec { return Codec{mode: encoding, w: *w} }

// Buffer returns an encoding Codec's buffer: the one it was made from, with
// the walked fields appended.
func (c *Codec) Buffer() Buffer { return c.w }

// NewDecoder returns a Codec that reads the fields it walks from a copy of
// r, re-parsing queries against catalog; Reader returns the copy.
func NewDecoder(r *Reader, catalog *relation.Catalog) Codec {
	return Codec{mode: decoding, r: *r, catalog: catalog}
}

// Reader returns a decoding Codec's reader, advanced past the walked
// fields.
func (c *Codec) Reader() Reader { return c.r }

// Len returns the encoded size of the fields a sizing Codec has walked.
func (c *Codec) Len() int { return c.n }

// Decoding reports whether c decodes.
func (c *Codec) Decoding() bool { return c.mode == decoding }

// Err returns the first error the walk met.
func (c *Codec) Err() error { return c.err }

// Fail records err as the walk's error, unless err is nil or an earlier
// error is already recorded.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Tag sizes or writes a message type tag. A decoder reads the tag with
// Uvarint before it knows which type to walk, so Tag is for sizing and
// encoding only.
func (c *Codec) Tag(tag byte) {
	v := uint64(tag)
	c.Uvarint(&v)
}

// Uvarint moves an unsigned varint.
func (c *Codec) Uvarint(v *uint64) {
	switch c.mode {
	case sizing:
		c.n += SizeUvarint(*v)
	case encoding:
		c.w.PutUvarint(*v)
	default:
		if c.err == nil {
			*v, c.err = c.r.Uvarint()
		}
	}
}

// Varint moves a signed varint.
func (c *Codec) Varint(v *int64) {
	switch c.mode {
	case sizing:
		c.n += SizeVarint(*v)
	case encoding:
		c.w.PutVarint(*v)
	default:
		if c.err == nil {
			*v, c.err = c.r.Varint()
		}
	}
}

// Int moves an int as the uvarint of its two's-complement bits.
func (c *Codec) Int(v *int) {
	u := uint64(*v)
	c.Uvarint(&u)
	if c.mode == decoding {
		*v = int(u)
	}
}

// Side moves a query side like Int.
func (c *Codec) Side(s *query.Side) {
	u := uint64(*s)
	c.Uvarint(&u)
	if c.mode == decoding {
		*s = query.Side(u)
	}
}

// Bool moves a bool as the uvarint 0 or 1; decoding reads any non-zero
// value as true.
func (c *Codec) Bool(b *bool) {
	var u uint64
	if *b {
		u = 1
	}
	c.Uvarint(&u)
	if c.mode == decoding {
		*b = u != 0
	}
}

// String moves a length-prefixed string.
func (c *Codec) String(s *string) {
	switch c.mode {
	case sizing:
		c.n += SizeString(*s)
	case encoding:
		c.w.PutString(*s)
	default:
		if c.err == nil {
			*s, c.err = c.r.String()
		}
	}
}

// Bytes moves a length-prefixed byte slice, laid out like String.
// Decoding does not copy: *b aliases the reader's input (see
// Reader.Bytes).
func (c *Codec) Bytes(b *[]byte) {
	switch c.mode {
	case sizing:
		c.n += SizeUvarint(uint64(len(*b))) + len(*b)
	case encoding:
		c.w.PutBytes(*b)
	default:
		if c.err == nil {
			*b, c.err = c.r.Bytes()
		}
	}
}

// Value moves one attribute value.
func (c *Codec) Value(v *relation.Value) {
	switch c.mode {
	case sizing:
		c.n += SizeValue(*v)
	case encoding:
		c.w.PutValue(*v)
	default:
		if c.err == nil {
			*v, c.err = c.r.Value()
		}
	}
}

// Tuple moves a tuple with its schema: sizing uses the size SizeTuple
// memoizes, decoding interns the schema (DecodeTuple).
func (c *Codec) Tuple(t **relation.Tuple) {
	switch c.mode {
	case sizing:
		c.n += SizeTuple(*t)
	case encoding:
		EncodeTuple(&c.w, *t)
	default:
		if c.err == nil {
			*t, c.err = DecodeTuple(&c.r)
		}
	}
}

// Query moves a query: sizing uses the size SizeQuery memoizes, decoding
// re-parses the SQL against the Codec's catalog through the intern table
// (DecodeQuery).
func (c *Codec) Query(q **query.Query) {
	switch c.mode {
	case sizing:
		c.n += SizeQuery(*q)
	case encoding:
		EncodeQuery(&c.w, *q)
	default:
		if c.err == nil {
			*q, c.err = DecodeQuery(&c.r, c.catalog)
		}
	}
}

// MultiQuery moves a multi-way query: its identity and insertion time, its
// SQL text, and the name of its pipeline's first relation, which orients
// the re-parse on arrival (ParseMulti).
func (c *Codec) MultiQuery(p **query.MultiQuery) {
	var key, sub, ip, text, first string
	var insT int64
	if mq := *p; c.mode != decoding {
		key, sub, ip, insT = mq.Key(), mq.Subscriber(), mq.SubscriberIP(), mq.InsT()
		text, first = mq.Text(), mq.RelAt(0).Name()
	}
	c.String(&key)
	c.String(&sub)
	c.String(&ip)
	c.Varint(&insT)
	textB := c.borrow(text)
	firstB := c.borrow(first)
	if c.mode != decoding || c.err != nil {
		return
	}
	mq, err := ParseMulti(c.catalog, textB, firstB)
	if err != nil {
		c.err = fmt.Errorf("wire: re-parse multi query: %w", err)
		return
	}
	*p = mq.WithRestoredIdentity(key, sub, ip, insT)
}

// borrow moves s as a string, but decoding returns the bytes read without
// copying them, for a lookup that keeps no reference to them.
func (c *Codec) borrow(s string) []byte {
	switch c.mode {
	case sizing:
		c.n += SizeString(s)
	case encoding:
		c.w.PutString(s)
	default:
		if c.err == nil {
			var b []byte
			b, c.err = c.r.Bytes()
			return b
		}
	}
	return nil
}

// MemberView moves a membership view.
func (c *Codec) MemberView(v **MemberView) {
	if *v == nil {
		*v = new(MemberView)
	}
	(*v).walk(c)
}

// Count moves the length of *xs; the walk then moves the elements.
// Decoding allocates *xs at the length read, after checking it against the
// bytes left: every element takes at least one byte, so a longer count is
// a forged length prefix, rejected before it can drive a huge allocation.
func Count[T any](c *Codec, xs *[]T) {
	n := uint64(len(*xs))
	c.Uvarint(&n)
	if c.mode != decoding || c.err != nil {
		return
	}
	if n > uint64(c.r.Remaining()) {
		c.err = fmt.Errorf("wire: element count %d exceeds %d remaining bytes", n, c.r.Remaining())
		return
	}
	*xs = make([]T, n)
}

// Strings moves a counted list of strings.
func (c *Codec) Strings(xs *[]string) {
	Count(c, xs)
	for i := range *xs {
		c.String(&(*xs)[i])
	}
}

// Tuples moves a counted list of tuples.
func (c *Codec) Tuples(xs *[]*relation.Tuple) {
	Count(c, xs)
	for i := range *xs {
		c.Tuple(&(*xs)[i])
	}
}

// Queries moves a counted list of queries.
func (c *Codec) Queries(xs *[]*query.Query) {
	Count(c, xs)
	for i := range *xs {
		c.Query(&(*xs)[i])
	}
}
