package engine

import (
	"errors"
	"fmt"

	"cqjoin/internal/chord"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// Full wire codecs for every engine message. The in-process simulator
// passes Go values between nodes for speed, but the encodings here are the
// authoritative on-the-wire form: every message's Size() is the exact
// length of its encoding, so the byte ledger reports what a socket
// deployment would actually transmit, and a real transport can adopt
// EncodeMessage/DecodeMessage unchanged.
//
// Each message type describes its layout once, as a walk method that
// hands its fields to a wire.Codec in wire order. Sizing, encoding and
// decoding all run that walk, so they agree by construction. A message on
// the wire is its tag, a uvarint, followed by its walk; walkMessage and
// decodeMessage map types to tags and back.

// Message type tags, dense 1..N. A removed message keeps its number
// retired rather than handing it to a new type, so a stale peer cannot
// misread a frame.
const (
	tagQuery = iota + 1
	tagALIndex
	tagVLIndex
	tagJoin
	tagJoinV
	tagJoinBatch
	tagNotify
	tagProbe
	tagUnsub
	tagPurge
	tagBaselineQuery
	tagBaselineTuple
	tagBaselineProbe
	tagMQuery
	tagMJoin
	tagHandoff
	tagHotJoin
	tagHotVLIndex
	tagHotMigrate
	tagHotRecall
	tagHotHandoff
	tagSnapMeta
)

// EncodeMessage appends msg's wire form to w. The buffer is pre-grown to
// the message's size (memoized per tuple/query, so this costs no second
// encode), turning the append sequence into straight copies with no
// mid-message reallocation.
func EncodeMessage(w *wire.Buffer, msg chord.Message) error {
	if n := MessageSize(msg); n > 0 {
		w.Grow(n)
	}
	c := wire.NewEncoder(w)
	walkMessage(&c, &msg)
	*w = c.Buffer()
	if err := c.Err(); err != nil {
		if errors.Is(err, errNoCodec) {
			return fmt.Errorf("engine: no codec for message type %T", msg)
		}
		return err
	}
	return nil
}

// MessageSize returns msg's exact encoded length, or 0 for message types
// EncodeMessage does not know. Exactness is what lets the transport
// encode messages in place behind a length prefix — see transport.Sizer.
func MessageSize(msg chord.Message) int {
	var c wire.Codec
	walkMessage(&c, &msg)
	if c.Err() != nil {
		return 0
	}
	return c.Len()
}

// DecodeMessage reads one message encoded by EncodeMessage, resolving
// queries against the catalog.
func DecodeMessage(r *wire.Reader, catalog *relation.Catalog) (chord.Message, error) {
	c := wire.NewDecoder(r, catalog)
	msg := decodeMessage(&c)
	*r = c.Reader()
	if err := c.Err(); err != nil {
		return nil, err
	}
	return msg, nil
}

// errNoCodec marks a message type the codec does not know. EncodeMessage
// names the type; walkMessage does not, since formatting the message would
// move every sized message to the heap.
var errNoCodec = errors.New("engine: no codec for message type")

// walkMessage moves *msg through c behind its tag: sizing and encoding
// switch on its type, decoding stores the message decodeMessage reads.
func walkMessage(c *wire.Codec, msg *chord.Message) {
	if c.Decoding() {
		*msg = decodeMessage(c)
		return
	}
	switch m := (*msg).(type) {
	case queryMsg:
		c.Tag(tagQuery)
		m.walk(c)
	case alIndexMsg:
		c.Tag(tagALIndex)
		m.walk(c)
	case vlIndexMsg:
		c.Tag(tagVLIndex)
		m.walk(c)
	case joinMsg:
		c.Tag(tagJoin)
		m.walk(c)
	case joinVMsg:
		c.Tag(tagJoinV)
		m.walk(c)
	case joinBatch:
		c.Tag(tagJoinBatch)
		m.walk(c)
	case notifyMsg:
		c.Tag(tagNotify)
		m.walk(c)
	case probeMsg:
		c.Tag(tagProbe)
		m.walk(c)
	case unsubMsg:
		c.Tag(tagUnsub)
		m.walk(c)
	case purgeMsg:
		c.Tag(tagPurge)
		m.walk(c)
	case baselineQueryMsg:
		c.Tag(tagBaselineQuery)
		m.walk(c)
	case baselineTupleMsg:
		c.Tag(tagBaselineTuple)
		m.walk(c)
	case baselineProbeMsg:
		c.Tag(tagBaselineProbe)
		m.walk(c)
	case mQueryMsg:
		c.Tag(tagMQuery)
		m.walk(c)
	case mJoinMsg:
		c.Tag(tagMJoin)
		m.walk(c)
	case handoffMsg:
		c.Tag(tagHandoff)
		m.walk(c)
	case hotJoinMsg:
		c.Tag(tagHotJoin)
		m.walk(c)
	case hotVLIndexMsg:
		c.Tag(tagHotVLIndex)
		m.walk(c)
	case hotMigrateMsg:
		c.Tag(tagHotMigrate)
		m.walk(c)
	case hotRecallMsg:
		c.Tag(tagHotRecall)
		m.walk(c)
	case hotHandoffMsg:
		c.Tag(tagHotHandoff)
		m.walk(c)
	case snapMetaMsg:
		c.Tag(tagSnapMeta)
		m.walk(c)
	default:
		c.Fail(errNoCodec)
	}
}

// decodeMessage reads a tag and the message of the type it names.
func decodeMessage(c *wire.Codec) chord.Message {
	var tag uint64
	c.Uvarint(&tag)
	switch tag {
	case tagQuery:
		var m queryMsg
		m.walk(c)
		return m
	case tagALIndex:
		var m alIndexMsg
		m.walk(c)
		return m
	case tagVLIndex:
		var m vlIndexMsg
		m.walk(c)
		return m
	case tagJoin:
		var m joinMsg
		m.walk(c)
		return m
	case tagJoinV:
		var m joinVMsg
		m.walk(c)
		return m
	case tagJoinBatch:
		var m joinBatch
		m.walk(c)
		return m
	case tagNotify:
		var m notifyMsg
		m.walk(c)
		return m
	case tagProbe:
		var m probeMsg
		m.walk(c)
		return m
	case tagUnsub:
		var m unsubMsg
		m.walk(c)
		return m
	case tagPurge:
		var m purgeMsg
		m.walk(c)
		return m
	case tagBaselineQuery:
		var m baselineQueryMsg
		m.walk(c)
		return m
	case tagBaselineTuple:
		var m baselineTupleMsg
		m.walk(c)
		return m
	case tagBaselineProbe:
		var m baselineProbeMsg
		m.walk(c)
		return m
	case tagMQuery:
		var m mQueryMsg
		m.walk(c)
		return m
	case tagMJoin:
		var m mJoinMsg
		m.walk(c)
		return m
	case tagHandoff:
		var m handoffMsg
		m.walk(c)
		return m
	case tagHotJoin:
		var m hotJoinMsg
		m.walk(c)
		return m
	case tagHotVLIndex:
		var m hotVLIndexMsg
		m.walk(c)
		return m
	case tagHotMigrate:
		var m hotMigrateMsg
		m.walk(c)
		return m
	case tagHotRecall:
		var m hotRecallMsg
		m.walk(c)
		return m
	case tagHotHandoff:
		var m hotHandoffMsg
		m.walk(c)
		return m
	case tagSnapMeta:
		var m snapMetaMsg
		m.walk(c)
		return m
	}
	if c.Err() == nil {
		c.Fail(fmt.Errorf("engine: unknown message tag %d", tag))
	}
	return nil
}

// elem returns the element *p points to, allocating it first when
// decoding has left *p nil.
func elem[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

func (m *queryMsg) walk(c *wire.Codec) {
	c.Query(&m.Q)
	c.String(&m.Attr)
	c.Side(&m.Side)
	c.Int(&m.Replica)
}

func (m *alIndexMsg) walk(c *wire.Codec) {
	c.Tuple(&m.T)
	c.String(&m.Attr)
	c.Int(&m.Replica)
}

func (m *vlIndexMsg) walk(c *wire.Codec) {
	c.Tuple(&m.T)
	c.String(&m.Attr)
}

func (m *joinMsg) walk(c *wire.Codec) {
	walkRewrites(c, &m.Rewrites)
}

func (m *joinVMsg) walk(c *wire.Codec) {
	c.String(&m.Input)
	c.String(&m.Cond)
	c.Side(&m.Side)
	c.Value(&m.Value)
	c.Tuple(&m.Trigger)
	c.Queries(&m.Queries)
}

func (m *joinBatch) walk(c *wire.Codec) {
	wire.Count(c, &m.Msgs)
	for i := range m.Msgs {
		walkMessage(c, &m.Msgs[i])
	}
}

func (m *notifyMsg) walk(c *wire.Codec) {
	c.String(&m.Subscriber)
	walkNotifications(c, &m.Batch)
}

func (m *probeMsg) walk(c *wire.Codec) {
	c.String(&m.AttrInput)
}

func (m *unsubMsg) walk(c *wire.Codec) {
	c.String(&m.QueryKey)
	c.String(&m.Cond)
	c.String(&m.Input)
}

func (m *purgeMsg) walk(c *wire.Codec) {
	c.String(&m.QueryKey)
	c.String(&m.Input)
}

func (m *baselineQueryMsg) walk(c *wire.Codec) {
	c.Query(&m.Q)
	c.Side(&m.Side)
	c.String(&m.Input)
}

func (m *baselineTupleMsg) walk(c *wire.Codec) {
	c.Tuple(&m.T)
	c.String(&m.Input)
	c.Side(&m.Side)
}

func (m *baselineProbeMsg) walk(c *wire.Codec) {
	c.String(&m.Input)
	walkRewrites(c, &m.Rewrites)
}

func (m *mQueryMsg) walk(c *wire.Codec) {
	c.MultiQuery(&m.MQ)
	c.String(&m.Attr)
	c.Int(&m.Replica)
}

func (m *mJoinMsg) walk(c *wire.Codec) {
	walkMRewrites(c, &m.Rewrites)
}

func (m *handoffMsg) walk(c *wire.Codec) {
	wire.Count(c, &m.AL)
	for i := range m.AL {
		m.AL[i].walk(c)
	}
	wire.Count(c, &m.VQ)
	for i := range m.VQ {
		m.VQ[i].walk(c)
	}
	wire.Count(c, &m.MQ)
	for i := range m.MQ {
		m.MQ[i].walk(c)
	}
	wire.Count(c, &m.VT)
	for i := range m.VT {
		m.VT[i].walk(c)
	}
	wire.Count(c, &m.DV)
	for i := range m.DV {
		m.DV[i].walk(c)
	}
	wire.Count(c, &m.Notifs)
	for i := range m.Notifs {
		m.Notifs[i].walk(c)
	}
}

// walkHotHeader moves the Shard/Version/K triple the hot-key frames share.
func walkHotHeader(c *wire.Codec, shard, version, k *int) {
	c.Int(shard)
	c.Int(version)
	c.Int(k)
}

func (m *hotJoinMsg) walk(c *wire.Codec) {
	c.String(&m.Input)
	walkHotHeader(c, &m.Shard, &m.Version, &m.K)
	walkRewrites(c, &m.Rewrites)
}

func (m *hotVLIndexMsg) walk(c *wire.Codec) {
	c.String(&m.Input)
	walkHotHeader(c, &m.Shard, &m.Version, &m.K)
	c.Tuple(&m.T)
}

func (m *hotMigrateMsg) walk(c *wire.Codec) {
	c.String(&m.Input)
	c.Int(&m.Version)
	c.Int(&m.K)
}

func (m *hotRecallMsg) walk(c *wire.Codec) {
	c.String(&m.Input)
	walkHotHeader(c, &m.Shard, &m.Version, &m.K)
}

func (m *hotHandoffMsg) walk(c *wire.Codec) {
	c.String(&m.Input)
	walkHotHeader(c, &m.Shard, &m.Version, &m.K)
	wire.Count(c, &m.Entries)
	for i := range m.Entries {
		m.Entries[i].walk(c)
	}
	c.Tuples(&m.Tuples)
}

// Snapshot-meta flag bits, written where the format before identity sets
// wrote the bare Multi bit (0 or 1). A clear snapIdentities bit marks that
// older format, whose delivered slot holds whole notifications.
const (
	snapMulti      uint64 = 1 << 0
	snapIdentities uint64 = 1 << 1
)

// walk moves a snapshot meta message. It runs on walkMessage's copy of the
// message, so setting Multi back from the flags is harmless when encoding.
func (m *snapMetaMsg) walk(c *wire.Codec) {
	c.Varint(&m.Clock)
	c.Strings(&m.Nodes)
	c.Strings(&m.Down)
	wire.Count(c, &m.Seq)
	for i := range m.Seq {
		c.String(&m.Seq[i].Key)
		c.Varint(&m.Seq[i].Seq)
	}
	wire.Count(c, &m.Subs)
	for i := range m.Subs {
		c.String(&m.Subs[i].Key)
		c.Strings(&m.Subs[i].Inputs)
	}
	flags := snapIdentities
	if m.Multi {
		flags |= snapMulti
	}
	c.Uvarint(&flags)
	if flags&^(snapMulti|snapIdentities) != 0 {
		c.Fail(fmt.Errorf("engine: unknown snapshot meta flags %#x", flags))
	}
	m.Multi = flags&snapMulti != 0
	c.Queries(&m.Conds)
	if flags&snapIdentities == 0 {
		m.walkSinkFormat(c)
	} else {
		wire.Count(c, &m.Delivered)
		for i := range m.Delivered {
			m.Delivered[i].walk(c)
		}
	}
	wire.Count(c, &m.HotEpochs)
	for i := range m.HotEpochs {
		c.String(&m.HotEpochs[i].Input)
		c.Int(&m.HotEpochs[i].Version)
		c.Int(&m.HotEpochs[i].K)
	}
	wire.Count(c, &m.HotCounts)
	for i := range m.HotCounts {
		c.String(&m.HotCounts[i].Input)
		c.Varint(&m.HotCounts[i].Count)
		c.Varint(&m.HotCounts[i].WindowStart)
	}
}

// walkSinkFormat reads the delivered slot of the older sink format, which
// holds every delivered notification in full, and keeps only their
// identities. Only decoding reaches it: encoding writes identities.
func (m *snapMetaMsg) walkSinkFormat(c *wire.Codec) {
	var sink []Notification
	walkNotifications(c, &sink)
	m.Delivered = make([]deliveryID, len(sink))
	for i := range sink {
		m.Delivered[i] = deliveryIDOf(sink[i])
	}
}

func walkRewrites(c *wire.Codec, rws *[]*rewritten) {
	wire.Count(c, rws)
	for i := range *rws {
		elem(&(*rws)[i]).walk(c)
	}
}

func (rw *rewritten) walk(c *wire.Codec) {
	c.String(&rw.Key)
	c.Query(&rw.Orig)
	c.Side(&rw.IndexSide)
	c.Tuple(&rw.Trigger)
	c.String(&rw.WantRel)
	c.String(&rw.WantAttr)
	c.Value(&rw.WantValue)
}

func walkMRewrites(c *wire.Codec, rws *[]*mRewritten) {
	wire.Count(c, rws)
	for i := range *rws {
		elem(&(*rws)[i]).walk(c)
	}
}

func (rw *mRewritten) walk(c *wire.Codec) {
	c.String(&rw.Key)
	c.MultiQuery(&rw.Orig)
	c.Int(&rw.Stage)
	c.Tuples(&rw.Acc)
	c.String(&rw.WantRel)
	c.String(&rw.WantAttr)
	c.Value(&rw.WantValue)
}

func walkNotifications(c *wire.Codec, batch *[]Notification) {
	wire.Count(c, batch)
	for i := range *batch {
		(*batch)[i].walk(c)
	}
}

func (n *Notification) walk(c *wire.Codec) {
	c.String(&n.QueryKey)
	c.String(&n.Subscriber)
	c.String(&n.subscriberIP)
	wire.Count(c, &n.Values)
	for i := range n.Values {
		c.Value(&n.Values[i])
	}
	c.Varint(&n.LeftPubT)
	c.Varint(&n.RightPubT)
	c.Varint(&n.DeliveredAt)
}

// walk moves a delivery identity. Decoding accepts only a content string
// contentOf could have built, so a decoded identity dedups exactly like a
// recorded one.
func (id *deliveryID) walk(c *wire.Codec) {
	c.String(&id.queryKey)
	c.String(&id.content)
	if c.Decoding() {
		c.Fail(validContent(id.content))
	}
	c.Varint(&id.leftPubT)
	c.Varint(&id.rightPubT)
}

func walkTargets(c *wire.Codec, es *[]targetsEntry) {
	wire.Count(c, es)
	for i := range *es {
		c.String(&(*es)[i].Key)
		c.Strings(&(*es)[i].Targets)
	}
}

func (sec *alSection) walk(c *wire.Codec) {
	c.String(&sec.Input)
	wire.Count(c, &sec.Groups)
	for i := range sec.Groups {
		g := &sec.Groups[i]
		c.String(&g.Cond)
		c.Side(&g.Side)
		c.Queries(&g.Queries)
	}
	wire.Count(c, &sec.Multi)
	for i := range sec.Multi {
		g := &sec.Multi[i]
		c.String(&g.Cond)
		wire.Count(c, &g.Queries)
		for j := range g.Queries {
			c.MultiQuery(&g.Queries[j])
		}
	}
	c.Strings(&sec.SentRewrites)
	walkTargets(c, &sec.SentTargets)
}

func (e *vqEntry) walk(c *wire.Codec) {
	elem(&e.Rw).walk(c)
	wire.Count(c, &e.Times)
	for i := range e.Times {
		c.Varint(&e.Times[i])
	}
}

func (sec *vqSection) walk(c *wire.Codec) {
	c.String(&sec.Input)
	wire.Count(c, &sec.Entries)
	for i := range sec.Entries {
		sec.Entries[i].walk(c)
	}
}

func (sec *mqSection) walk(c *wire.Codec) {
	c.String(&sec.Input)
	walkMRewrites(c, &sec.Rewrites)
	walkTargets(c, &sec.SentTargets)
}

func (sec *vtSection) walk(c *wire.Codec) {
	c.String(&sec.Input)
	c.Tuples(&sec.Tuples)
}

func (sec *dvSection) walk(c *wire.Codec) {
	c.String(&sec.Input)
	wire.Count(c, &sec.Entries)
	for i := range sec.Entries {
		e := &sec.Entries[i]
		c.String(&e.Cond)
		c.Tuples(&e.Left)
		c.Tuples(&e.Right)
	}
}

func (sec *notifSection) walk(c *wire.Codec) {
	c.String(&sec.Subscriber)
	walkNotifications(c, &sec.Batch)
}
