package main

import (
	"runtime"
	"sync"
	"time"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// handlerKinds are the message kinds reported one by one; every other
// kind is summed under "other".
var handlerKinds = []string{"query", "al-index", "vl-index", "join", "notification", "unsubscribe"}

// tracer collects the per-layer spans the traced run records around the
// public entry points of the program's layers. Nothing inside the
// program is instrumented: the spans come from wrappers this benchmark
// installs (a chord.Transport, a cqjoin.Durability) and from timing its
// own calls into the query parser, the wire codec and the daemons.
type tracer struct {
	catalog *relation.Catalog
	codec   engine.WireCodec

	mu         sync.Mutex
	stacks     map[uint64][]time.Duration // per goroutine: nested time of each open delivery
	self       map[string]time.Duration   // handler self time by message kind
	deliveries int
	remote     []time.Duration // inclusive remote Deliver/DeliverBatch times
	publish    []time.Duration // inclusive engine Publish times
	parse      []time.Duration
	wireMsgs   int
	wireBytes  int
	encode     time.Duration
	decode     time.Duration
	size       time.Duration
}

func newTracer(catalog *relation.Catalog) *tracer {
	return &tracer{
		catalog: catalog,
		codec:   engine.NewWireCodec(catalog),
		stacks:  make(map[uint64][]time.Duration),
		self:    make(map[string]time.Duration),
	}
}

// wrap installs a timing wrapper around net's current transport. local
// reports whether a delivery to dst runs its handler in this overlay
// process (always, for the in-process library).
func (t *tracer) wrap(net *chord.Network, local func(dst *chord.Node) bool) {
	net.SetTransport(&tracedTransport{inner: net.Transport(), t: t, local: local})
}

// measureWire runs msg through the engine's wire codec (size, encode,
// decode) and returns the time that took, so the caller can keep it out
// of the enclosing handler's self time.
func (t *tracer) measureWire(msg chord.Message) time.Duration {
	t0 := time.Now()
	n := t.codec.Size(msg)
	t1 := time.Now()
	var w wire.Buffer
	err := t.codec.Encode(&w, msg)
	t2 := time.Now()
	if err == nil {
		var r wire.Reader
		r.Reset(w.Bytes())
		_, err = t.codec.Decode(&r)
	}
	t3 := time.Now()
	t.mu.Lock()
	if err == nil {
		t.wireMsgs++
		t.wireBytes += n
		t.size += t1.Sub(t0)
		t.encode += t2.Sub(t1)
		t.decode += t3.Sub(t2)
	}
	t.mu.Unlock()
	return t3.Sub(t0)
}

// enter opens a delivery span on goroutine g.
func (t *tracer) enter(g uint64) {
	t.mu.Lock()
	t.stacks[g] = append(t.stacks[g], 0)
	t.mu.Unlock()
}

// leave closes g's innermost span, charging its self time (inclusive
// minus nested deliveries) to kind, and adds spent to the enclosing
// span's nested time.
func (t *tracer) leave(g uint64, kind string, incl, spent time.Duration) {
	t.mu.Lock()
	st := t.stacks[g]
	nested := st[len(st)-1]
	st = st[:len(st)-1]
	t.self[kind] += incl - nested
	t.deliveries++
	t.nest(g, st, spent)
	t.mu.Unlock()
}

// nest adds d to the innermost open span of g (st is g's stack). Caller
// holds t.mu.
func (t *tracer) nest(g uint64, st []time.Duration, d time.Duration) {
	if len(st) == 0 {
		delete(t.stacks, g)
		return
	}
	st[len(st)-1] += d
	t.stacks[g] = st
}

// remoteDone records one remote delivery and charges it to the
// enclosing span.
func (t *tracer) remoteDone(g uint64, incl, spent time.Duration) {
	t.mu.Lock()
	t.remote = append(t.remote, incl)
	t.nest(g, t.stacks[g], spent)
	t.mu.Unlock()
}

func (t *tracer) record(dst *[]time.Duration, d time.Duration) {
	t.mu.Lock()
	*dst = append(*dst, d)
	t.mu.Unlock()
}

// parseQuery times the query layer's parser on one subscription text.
func (t *tracer) parseQuery(sql string) {
	t0 := time.Now()
	_, err := query.Parse(t.catalog, sql)
	if err == nil {
		t.record(&t.parse, time.Since(t0))
	}
}

// selfByKind returns the handler self time per reported kind.
func (t *tracer) selfByKind() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, k := range handlerKinds {
		out[k] = 0
	}
	out["other"] = 0
	for k, d := range t.self {
		if _, ok := out[k]; ok && k != "other" {
			out[k] += d
		} else {
			out["other"] += d
		}
	}
	return out
}

// layerMetrics renders the tracer's spans as per-layer metrics, per
// publication where that is the natural base.
func (t *tracer) layerMetrics(pubs int, m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pf := float64(pubs)
	m["engine.publish_us_p50"] = quantile(usOf(t.publish), 0.5)
	m["engine.publish_us_p99"] = quantile(usOf(t.publish), 0.99)
	m["engine.deliveries_per_pub"] = per(float64(t.deliveries), pf)
	var total time.Duration
	for k, d := range t.selfByKind() {
		m["engine.handle_self_us."+k] = per(us(d), pf)
		total += d
	}
	m["engine.handle_self_us_per_pub"] = per(us(total), pf)
	m["wire.encode_ns_per_msg"] = per(float64(t.encode), float64(t.wireMsgs))
	m["wire.decode_ns_per_msg"] = per(float64(t.decode), float64(t.wireMsgs))
	m["wire.size_ns_per_msg"] = per(float64(t.size), float64(t.wireMsgs))
	m["wire.bytes_per_msg"] = per(float64(t.wireBytes), float64(t.wireMsgs))
	m["transport.rtt_us_p50"] = zeroIfNaN(quantile(usOf(t.remote), 0.5))
	m["transport.rtt_us_p99"] = zeroIfNaN(quantile(usOf(t.remote), 0.99))
	m["query.parse_us"] = zeroIfNaN(median(usOf(t.parse)))
	if len(t.publish) == 0 {
		m["engine.publish_us_p50"], m["engine.publish_us_p99"] = 0, 0
	}
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func zeroIfNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// tracedTransport times every delivery the overlay hands its transport.
// A delivery whose handler runs in this process is a handler span; one
// that crosses to another process is a transport round trip (its remote
// handler runs there, outside any span). Batches to a local destination
// are split into single deliveries, which is what the in-process and TCP
// transports do with them anyway, so each message gets its own span.
type tracedTransport struct {
	inner chord.Transport
	t     *tracer
	local func(dst *chord.Node) bool
}

func (tt *tracedTransport) Deliver(from, dst *chord.Node, msg chord.Message) bool {
	g := goid()
	wireTime := tt.t.measureWire(msg)
	if !tt.local(dst) {
		t0 := time.Now()
		ok := tt.inner.Deliver(from, dst, msg)
		incl := time.Since(t0)
		tt.t.remoteDone(g, incl, incl+wireTime)
		return ok
	}
	tt.t.enter(g)
	t0 := time.Now()
	ok := tt.inner.Deliver(from, dst, msg)
	incl := time.Since(t0)
	tt.t.leave(g, msg.Kind(), incl, incl+wireTime)
	return ok
}

func (tt *tracedTransport) DeliverBatch(from, dst *chord.Node, msgs []chord.Message) []bool {
	if tt.local(dst) {
		acks := make([]bool, len(msgs))
		for i, m := range msgs {
			acks[i] = tt.Deliver(from, dst, m)
		}
		return acks
	}
	g := goid()
	var wireTime time.Duration
	for _, m := range msgs {
		wireTime += tt.t.measureWire(m)
	}
	t0 := time.Now()
	acks := tt.inner.DeliverBatch(from, dst, msgs)
	incl := time.Since(t0)
	tt.t.remoteDone(g, incl, incl+wireTime)
	return acks
}

// timedEngine is a cqjoin.Durability that calls the engine directly, as
// a cluster without durability does, timing each publication.
type timedEngine struct {
	eng *engine.Engine
	t   *tracer
}

func (e timedEngine) Subscribe(from *chord.Node, q *query.Query) (*query.Query, error) {
	return e.eng.Subscribe(from, q)
}

func (e timedEngine) SubscribeMulti(from *chord.Node, mq *query.MultiQuery) (*query.MultiQuery, error) {
	return e.eng.SubscribeMulti(from, mq)
}

func (e timedEngine) Unsubscribe(from *chord.Node, q *query.Query) error {
	return e.eng.Unsubscribe(from, q)
}

func (e timedEngine) UnsubscribeMulti(from *chord.Node, mq *query.MultiQuery) error {
	return e.eng.UnsubscribeMulti(from, mq)
}

func (e timedEngine) Publish(from *chord.Node, t *relation.Tuple) (*relation.Tuple, error) {
	t0 := time.Now()
	out, err := e.eng.Publish(from, t)
	e.t.record(&e.t.publish, time.Since(t0))
	return out, err
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:"). Spans nest per goroutine: the TCP
// transport runs inbound handlers on its own goroutines.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
