package durable

import (
	"errors"
	"fmt"

	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// WAL record codec. One record is one engine-visible event: a client
// operation (subscribe, unsubscribe, publish, batch publish), an inbound
// overlay delivery from a remote process, or a membership view adoption.
// It has the engine message codec's shape: dense tag constants, one walk
// per record type that encoding, sizing and decoding all run, and one
// switch each way between types and tags.

// Record tags. Dense 1..N; a removed record kind keeps its number retired.
const (
	tagSubscribe = iota + 1
	tagUnsubscribe
	tagPublish
	tagBatch
	tagDelivery
	tagView
)

// subscribeRec logs one completed Subscribe/SubscribeMulti: the client
// node, the (oriented, for multi-way) query text, and the key the engine
// assigned — replay re-derives the key from the restored sequence
// counters and asserts it matches.
type subscribeRec struct {
	Node  string
	SQL   string
	Key   string
	Multi bool
}

// unsubscribeRec logs one completed Unsubscribe/UnsubscribeMulti.
type unsubscribeRec struct {
	Node  string
	SQL   string
	Key   string
	Multi bool
}

// publishRec logs one completed Publish of the unstamped input tuple;
// replay re-stamps it through the restored clock.
type publishRec struct {
	Node string
	T    *relation.Tuple
}

// batchRec logs one completed PublishBatch.
type batchRec struct {
	Nodes   []string
	Tuples  []*relation.Tuple
	Workers int
}

// deliveryRec logs one inbound remote delivery, acknowledged only after
// this record is durable: the destination node key and the encoded
// engine message.
type deliveryRec struct {
	Node  string
	Frame []byte
}

// viewRec logs one adopted membership view.
type viewRec struct {
	View *wire.MemberView
}

func (m *subscribeRec) walk(c *wire.Codec) {
	c.String(&m.Node)
	c.String(&m.SQL)
	c.String(&m.Key)
	c.Bool(&m.Multi)
}

func (m *unsubscribeRec) walk(c *wire.Codec) { (*subscribeRec)(m).walk(c) }

func (m *publishRec) walk(c *wire.Codec) {
	c.String(&m.Node)
	c.Tuple(&m.T)
}

func (m *batchRec) walk(c *wire.Codec) {
	c.Strings(&m.Nodes)
	c.Tuples(&m.Tuples)
	c.Int(&m.Workers)
}

func (m *deliveryRec) walk(c *wire.Codec) {
	c.String(&m.Node)
	c.Bytes(&m.Frame)
}

func (m *viewRec) walk(c *wire.Codec) {
	c.MemberView(&m.View)
}

// errNoCodec marks a record type the codec does not know; encodeRecord
// names the type.
var errNoCodec = errors.New("durable: no codec for record type")

// encodeRecord writes one WAL record, tag first.
func encodeRecord(w *wire.Buffer, rec any) error {
	w.Grow(recordSize(rec))
	c := wire.NewEncoder(w)
	walkRecord(&c, &rec)
	*w = c.Buffer()
	if err := c.Err(); err != nil {
		if errors.Is(err, errNoCodec) {
			return fmt.Errorf("durable: no codec for record type %T", rec)
		}
		return err
	}
	return nil
}

// recordSize returns a record's exact encoded length, or 0 for a type
// encodeRecord does not know.
func recordSize(rec any) int {
	var c wire.Codec
	walkRecord(&c, &rec)
	if c.Err() != nil {
		return 0
	}
	return c.Len()
}

// decodeRecord reads one WAL record encoded by encodeRecord.
func decodeRecord(r *wire.Reader) (any, error) {
	c := wire.NewDecoder(r, nil)
	var rec any
	walkRecord(&c, &rec)
	*r = c.Reader()
	if err := c.Err(); err != nil {
		return nil, err
	}
	return rec, nil
}

// walkRecord moves *rec through c behind its tag: sizing and encoding
// switch on its type, decoding on the tag it reads.
func walkRecord(c *wire.Codec, rec *any) {
	if c.Decoding() {
		*rec = decodeRecordBody(c)
		return
	}
	switch m := (*rec).(type) {
	case subscribeRec:
		c.Tag(tagSubscribe)
		m.walk(c)
	case unsubscribeRec:
		c.Tag(tagUnsubscribe)
		m.walk(c)
	case publishRec:
		c.Tag(tagPublish)
		m.walk(c)
	case batchRec:
		c.Tag(tagBatch)
		m.walk(c)
	case deliveryRec:
		c.Tag(tagDelivery)
		m.walk(c)
	case viewRec:
		c.Tag(tagView)
		m.walk(c)
	default:
		c.Fail(errNoCodec)
	}
}

// decodeRecordBody reads a tag and the record of the type it names.
func decodeRecordBody(c *wire.Codec) any {
	var tag uint64
	c.Uvarint(&tag)
	switch tag {
	case tagSubscribe:
		var m subscribeRec
		m.walk(c)
		return m
	case tagUnsubscribe:
		var m unsubscribeRec
		m.walk(c)
		return m
	case tagPublish:
		var m publishRec
		m.walk(c)
		return m
	case tagBatch:
		var m batchRec
		m.walk(c)
		return m
	case tagDelivery:
		var m deliveryRec
		m.walk(c)
		return m
	case tagView:
		var m viewRec
		m.walk(c)
		return m
	}
	if c.Err() == nil {
		c.Fail(fmt.Errorf("durable: unknown record tag %d", tag))
	}
	return nil
}
