package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// The delivered-identity set is the only per-delivery state an engine
// keeps: the receiver-side duplicate check of at-least-once delivery
// (Section 4.6). Its size is the delivered count, it rides in snapshots,
// and nothing in it is rendered through Value.Canon.

// deliveryID is the exact identity of a delivered notification: the
// triggered query's key, its projected content, and the publication times
// of the matched pair. Distinct tuple pairs can project to equal values, so
// content alone is not an identity; content stays in it because daemons
// stamping from separate clocks can give two pairs equal publication
// times. The subscriber is implied, since Key(q) is subscriber#seq.
type deliveryID struct {
	queryKey, content   string
	leftPubT, rightPubT int64
}

func deliveryIDOf(n Notification) deliveryID {
	return deliveryID{queryKey: n.QueryKey, content: contentOf(n.Values), leftPubT: n.LeftPubT, rightPubT: n.RightPubT}
}

// canonNaN is the one bit pattern every NaN folds to: Canon renders all
// NaNs as "NaN", so the dedup set treats them as one value.
const canonNaN uint64 = 0x7ff8000000000001

// contentOf encodes projected values as a deliveryID content string with
// one allocation, in the wire value layout, each number folded first.
func contentOf(vals []relation.Value) string {
	size := 0
	for _, v := range vals {
		size += wire.SizeValue(v)
	}
	var b strings.Builder
	b.Grow(size)
	for _, v := range vals {
		if v.Kind() == relation.Number {
			v = relation.N(math.Float64frombits(numberBits(v.Num())))
		}
		wire.WriteValue(&b, v)
	}
	return b.String()
}

// numberBits is the folding rule: -0 folds to +0 and every NaN to
// canonNaN, exactly the equivalences Value.Canon draws between numbers.
func numberBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return canonNaN
	}
	return math.Float64bits(f)
}

// nextContentValue decodes the value at the head of a content string and
// returns the remainder. Only the folded form contentOf writes is
// accepted, so a decoded identity dedups exactly like a recorded one.
func nextContentValue(s string) (relation.Value, string, error) {
	v, rest, err := wire.CutValue(s)
	if err != nil {
		return v, rest, fmt.Errorf("engine: delivery content: %w", err)
	}
	if v.Kind() == relation.Number {
		if bits := math.Float64bits(v.Num()); numberBits(v.Num()) != bits {
			return v, rest, fmt.Errorf("engine: unfolded delivery content number %#x", bits)
		}
	}
	return v, rest, nil
}

// validContent reports whether s is a well-formed content string.
func validContent(s string) error {
	for s != "" {
		var err error
		if _, s, err = nextContentValue(s); err != nil {
			return err
		}
	}
	return nil
}

// notification rebuilds the notification an identity stands for. The set
// keeps no delivery time or subscriber address, so those read zero.
func (id deliveryID) notification() Notification {
	n := Notification{QueryKey: id.queryKey, LeftPubT: id.leftPubT, RightPubT: id.rightPubT}
	if i := strings.LastIndexByte(id.queryKey, '#'); i >= 0 {
		n.Subscriber = id.queryKey[:i]
	}
	for s := id.content; s != ""; {
		v, rest, err := nextContentValue(s)
		if err != nil {
			panic(err) // contents are built by contentOf or validated on decode
		}
		n.Values = append(n.Values, v)
		s = rest
	}
	return n
}

func compareIDs(a, b deliveryID) int {
	if c := strings.Compare(a.queryKey, b.queryKey); c != 0 {
		return c
	}
	if c := strings.Compare(a.content, b.content); c != 0 {
		return c
	}
	if c := cmp.Compare(a.leftPubT, b.leftPubT); c != 0 {
		return c
	}
	return cmp.Compare(a.rightPubT, b.rightPubT)
}

// deliveredIDs returns the delivered-identity set in compareIDs order,
// sorting outside the engine lock.
func (e *Engine) deliveredIDs() []deliveryID {
	e.mu.Lock()
	out := make([]deliveryID, 0, len(e.delivered))
	for id := range e.delivered {
		out = append(out, id)
	}
	e.mu.Unlock()
	slices.SortFunc(out, compareIDs)
	return out
}
