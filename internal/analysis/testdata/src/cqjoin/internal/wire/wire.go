// Package wire is a fixture stand-in for the real codec buffer.
package wire

type Buffer struct{ b []byte }

func (w *Buffer) PutUvarint(v uint64) {}
func (w *Buffer) PutVarint(v int64)   {}
func (w *Buffer) PutString(s string)  {}

type Codec struct{ n int }

func (c *Codec) Len() int            { return c.n }
func (c *Codec) String(s *string)    {}
func (c *Codec) Varint(v *int64)     {}
func Count[T any](c *Codec, xs *[]T) {}
