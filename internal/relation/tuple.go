package relation

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Tuple is one row of a relation, carrying the publication time pubT(t) set
// when the tuple is inserted into the network (Section 3.2). A tuple can
// trigger a query q iff pubT(t) >= insT(q).
type Tuple struct {
	schema *Schema
	values []Value
	pubT   int64

	// wireSize memoizes the tuple's wire-encoded length; 0 means not yet
	// computed. Accessed atomically (plain int64 + atomic ops rather than
	// atomic.Int64, which would forbid the value copies tests make): one
	// tuple value is shared by every in-flight message that carries it, and
	// concurrent cascade workers size those messages independently.
	wireSize int64
}

// NewTuple builds a tuple of the given schema. The number of values must
// match the schema's arity.
func NewTuple(schema *Schema, values ...Value) (*Tuple, error) {
	return NewStampedTuple(schema, 0, append([]Value(nil), values...))
}

// NewStampedTuple builds a tuple of the given schema stamped with
// publication time pubT. Unlike NewTuple it takes ownership of values: the
// caller must not modify the slice afterwards. Decoders use it to build a
// received tuple with a single copy of its values.
func NewStampedTuple(schema *Schema, pubT int64, values []Value) (*Tuple, error) {
	if schema == nil {
		return nil, fmt.Errorf("relation: tuple with nil schema")
	}
	if len(values) != schema.Arity() {
		return nil, fmt.Errorf("relation: tuple of %s needs %d values, got %d",
			schema.Name(), schema.Arity(), len(values))
	}
	return &Tuple{schema: schema, values: values, pubT: pubT}, nil
}

// MustTuple is NewTuple that panics on error, for literals in tests and
// examples.
func MustTuple(schema *Schema, values ...Value) *Tuple {
	t, err := NewTuple(schema, values...)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the tuple's relation schema.
func (t *Tuple) Schema() *Schema { return t.schema }

// Relation returns the relation name.
func (t *Tuple) Relation() string { return t.schema.Name() }

// Values returns the attribute values in schema order.
func (t *Tuple) Values() []Value { return append([]Value(nil), t.values...) }

// Value returns the value of the named attribute.
func (t *Tuple) Value(attr string) (Value, error) {
	i := t.schema.AttrIndex(attr)
	if i < 0 {
		return Value{}, fmt.Errorf("relation: %s has no attribute %s", t.schema.Name(), attr)
	}
	return t.values[i], nil
}

// MustValue is Value that panics on an unknown attribute.
func (t *Tuple) MustValue(attr string) Value {
	v, err := t.Value(attr)
	if err != nil {
		panic(err)
	}
	return v
}

// PubT returns the tuple's publication time (0 until inserted).
func (t *Tuple) PubT() int64 { return t.pubT }

// CachedWireSize returns the memoized wire-encoding length, or 0 when it
// has not been computed. Schema, values and pubT are immutable after
// construction, so a non-zero size stays valid for the tuple's lifetime.
func (t *Tuple) CachedWireSize() int { return int(atomic.LoadInt64(&t.wireSize)) }

// SetCachedWireSize memoizes the tuple's wire-encoding length.
func (t *Tuple) SetCachedWireSize(n int) { atomic.StoreInt64(&t.wireSize, int64(n)) }

// WithPubT returns a copy of the tuple stamped with publication time ts.
// The engine stamps tuples at insertion; the original is not modified. The
// copy is built field by field — a struct copy would read wireSize without
// synchronization, and the new pubT invalidates the memoized size anyway.
func (t *Tuple) WithPubT(ts int64) *Tuple {
	return &Tuple{schema: t.schema, values: append([]Value(nil), t.values...), pubT: ts}
}

// Projection restricts tuples of one relation to an ordered subset of its
// attributes, as DAI-V ships "the projection of t on the attributes needed
// for the evaluation of the join" (Section 4.5). It is prepared once — a
// query's plan holds one per joined relation — so projecting a tuple
// builds no schema: every result shares the projection's immutable Schema.
type Projection struct {
	schema *Schema
	pos    []int // attribute positions in the source schema
}

// NewProjection prepares the restriction of src's tuples to attrs, in the
// given order.
func NewProjection(src *Schema, attrs []string) (*Projection, error) {
	sub, err := NewSchema(src.Name(), attrs...)
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		if pos[i] = src.AttrIndex(a); pos[i] < 0 {
			return nil, fmt.Errorf("relation: %s has no attribute %s", src.Name(), a)
		}
	}
	return &Projection{schema: sub, pos: pos}, nil
}

// Schema returns the projected schema.
func (p *Projection) Schema() *Schema { return p.schema }

// Apply returns a new tuple holding t's values of the projected attributes
// and t's publication time. t must be of the projection's relation; its
// schema need not be the source schema (a decoded tuple carries its own),
// so each precomputed position is checked by name and looked up again when
// t's layout differs.
func (p *Projection) Apply(t *Tuple) (*Tuple, error) {
	if t.schema.name != p.schema.name {
		return nil, fmt.Errorf("relation: projection of %s applied to a %s tuple", p.schema.name, t.schema.name)
	}
	vals := make([]Value, len(p.pos))
	for i, j := range p.pos {
		a := p.schema.attrs[i]
		if j >= len(t.schema.attrs) || t.schema.attrs[j] != a {
			if j = t.schema.AttrIndex(a); j < 0 {
				return nil, fmt.Errorf("relation: %s has no attribute %s", t.schema.name, a)
			}
		}
		vals[i] = t.values[j]
	}
	return &Tuple{schema: p.schema, values: vals, pubT: t.pubT}, nil
}

// String renders the tuple as Relation(v1, v2, ...).
func (t *Tuple) String() string {
	parts := make([]string, len(t.values))
	for i, v := range t.values {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s(%s)", t.schema.Name(), strings.Join(parts, ", "))
}
