package engine

import (
	"math"
	"os"
	"reflect"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// identityScenario is the small SAI workload the sink-format snapshot
// fixture (testdata/snapmeta-sink.bin) was exported from: nine numeric R/S
// matches and one Document/Authors match with string values.
func identityScenario(t testing.TB) *testEnv {
	t.Helper()
	env := newTestEnv(t, 16, Config{Algorithm: SAI, Seed: 3})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.subscribe(t, 5, `SELECT Document.Title, Authors.Surname FROM Document, Authors WHERE Document.AuthorId = Authors.Id`)
	for i := 0; i < 3; i++ {
		env.publish(t, i, rTuple(env, float64(i), 7, 0))
		env.publish(t, i+3, sTuple(env, float64(10+i), 7, 0))
	}
	env.publish(t, 7, relation.MustTuple(env.doc, relation.N(1), relation.S("P2P joins"), relation.S("ICDE"), relation.N(4)))
	env.publish(t, 8, relation.MustTuple(env.authors, relation.N(4), relation.S("Stratos"), relation.S("Idreos")))
	return env
}

// roundTrip encodes and decodes a message through the engine codec.
func roundTrip(t *testing.T, catalog *relation.Catalog, msg chord.Message) chord.Message {
	t.Helper()
	var w wire.Buffer
	if err := EncodeMessage(&w, msg); err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	got, err := DecodeMessage(wire.NewReader(w.Bytes()), catalog)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	return got
}

// redeliver hands notification n to its subscriber again, as a retry or a
// replayed stored batch would.
func redeliver(t *testing.T, env *testEnv, n Notification) {
	t.Helper()
	if !env.net.DeliverLocal(n.Subscriber, notifyMsg{Subscriber: n.Subscriber, Batch: []Notification{n}}) {
		t.Fatalf("subscriber %s not deliverable", n.Subscriber)
	}
}

// A notification delivered before ExportSnapshot stays suppressed after
// RestoreSnapshot into a fresh engine, and the suppression is counted as a
// duplicate.
func TestDeliveredIdentitySurvivesSnapshot(t *testing.T) {
	env := identityScenario(t)
	sent := env.eng.Notifications()
	if len(sent) != 10 {
		t.Fatalf("scenario delivered %d notifications, want 10", len(sent))
	}
	meta, nodes := env.eng.ExportSnapshot(nil)

	fresh := newTestEnv(t, 16, Config{Algorithm: SAI, Seed: 3})
	for i := range nodes {
		nodes[i].Msg = roundTrip(t, env.catalog, nodes[i].Msg)
	}
	if err := fresh.eng.RestoreSnapshot(roundTrip(t, env.catalog, meta), nodes); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := DeliveryKeys(fresh.eng.Delivered()), DeliveryKeys(sent); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored identities %v, want %v", got, want)
	}
	for _, n := range sent {
		redeliver(t, fresh, n)
	}
	if got := fresh.net.Traffic().Duplicates("notification"); got != int64(len(sent)) {
		t.Fatalf("%d redeliveries counted as duplicates, want %d", got, len(sent))
	}
	if got := fresh.eng.NotificationCount(); got != len(sent) {
		t.Fatalf("redelivery changed the delivered count to %d, want %d", got, len(sent))
	}
	if got := fresh.eng.Notifications(); len(got) != 0 {
		t.Fatalf("suppressed redeliveries reached the kept log: %v", got)
	}
}

// Two deliveries with the same query key and publication times but
// different values are distinct matches: daemons stamping from separate
// clocks can produce them.
func TestSameTimesDifferentValuesBothDelivered(t *testing.T) {
	env := identityScenario(t)
	base := env.eng.NotificationCount()
	n := env.eng.Notifications()[0]
	for _, vals := range [][]relation.Value{
		{relation.N(100), relation.N(200)},
		{relation.N(100), relation.N(201)},
		{relation.S("100"), relation.N(200)},
	} {
		m := n
		m.Values = vals
		m.LeftPubT, m.RightPubT = 1000, 1001
		redeliver(t, env, m)
	}
	if got := env.eng.NotificationCount() - base; got != 3 {
		t.Fatalf("delivered %d of 3 distinct contents", got)
	}
	if got := env.net.Traffic().Duplicates("notification"); got != 0 {
		t.Fatalf("%d distinct contents suppressed as duplicates", got)
	}
}

// Numbers fold in the content of an identity exactly as Value.Canon folds
// them in ContentKey: -0 with +0, every NaN with every other, and nothing
// else.
func TestContentFoldsNumbersLikeCanon(t *testing.T) {
	nums := []float64{
		0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), -1, 7, 1e300, 5e-324,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000abc),
		math.Float64frombits(0xfff0000000000001),
	}
	for _, a := range nums {
		for _, b := range nums {
			va, vb := relation.N(a), relation.N(b)
			sameContent := contentOf([]relation.Value{va}) == contentOf([]relation.Value{vb})
			if sameCanon := va.Canon() == vb.Canon(); sameContent != sameCanon {
				t.Errorf("%v vs %v: content equal %v, Canon equal %v", a, b, sameContent, sameCanon)
			}
		}
	}

	env := identityScenario(t)
	base := env.eng.NotificationCount()
	n := env.eng.Notifications()[0]
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000abc)} {
		m := n
		m.Values = []relation.Value{relation.N(v)}
		m.LeftPubT, m.RightPubT = 2000, 2001
		redeliver(t, env, m)
	}
	if got := env.eng.NotificationCount() - base; got != 2 {
		t.Fatalf("±0 and two NaNs delivered %d notifications, want 2", got)
	}
	if got := env.net.Traffic().Duplicates("notification"); got != 2 {
		t.Fatalf("%d folded deliveries counted as duplicates, want 2", got)
	}
}

// An identity decodes back to the notification it was built from, its
// content takes one allocation, and a content string not in contentOf's
// canonical form is rejected.
func TestContentRoundTripAndValidation(t *testing.T) {
	n := Notification{
		QueryKey: "peer7#3", Subscriber: "peer7", LeftPubT: 4, RightPubT: 9,
		Values: []relation.Value{relation.S(""), relation.S("a|b"), relation.N(-2.5), relation.N(math.Inf(1))},
	}
	id := deliveryIDOf(n)
	if got := id.notification(); deliveryKey(got) != deliveryKey(n) || !reflect.DeepEqual(got.Values, n.Values) {
		t.Fatalf("identity rebuilt %+v, want %+v", got, n)
	}
	if err := validContent(id.content); err != nil {
		t.Fatalf("contentOf output rejected: %v", err)
	}
	if got := testing.AllocsPerRun(100, func() { contentOf(n.Values) }); got != 1 {
		t.Fatalf("contentOf allocates %.0f times, want 1", got)
	}
	for _, bad := range []string{
		"x",                                    // unknown kind
		"\x00\x05ab",                           // string longer than the rest
		"\x00\x80\x00",                         // non-minimal length prefix
		"\x01\x00\x00",                         // truncated number
		"\x01\x80\x00\x00\x00\x00\x00\x00\x00", // -0 not folded
		"\x01\x7f\xf8\x00\x00\x00\x00\x0a\xbc", // NaN not folded
	} {
		if validContent(bad) == nil {
			t.Errorf("malformed content %q accepted", bad)
		}
	}
}

// A snapshot meta in the sink format, written before identity sets,
// carries the delivered notifications themselves. It decodes into their
// identities, so a restore suppresses every one of them.
func TestSinkFormatSnapshotConverts(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapmeta-sink.bin")
	if err != nil {
		t.Fatal(err)
	}
	env := identityScenario(t)
	meta, err := DecodeMessage(wire.NewReader(raw), env.catalog)
	if err != nil {
		t.Fatalf("decode sink-format meta: %v", err)
	}
	fresh := newTestEnv(t, 16, Config{Algorithm: SAI, Seed: 3})
	if err := fresh.eng.RestoreSnapshot(meta, nil); err != nil {
		t.Fatalf("restore: %v", err)
	}
	sent := env.eng.Notifications()
	if got, want := DeliveryKeys(fresh.eng.Delivered()), DeliveryKeys(sent); !reflect.DeepEqual(got, want) {
		t.Fatalf("converted identities %v, want %v", got, want)
	}
	redeliver(t, fresh, sent[len(sent)-1])
	if got := fresh.net.Traffic().Duplicates("notification"); got != 1 {
		t.Fatalf("redelivery after a sink-format restore counted %d duplicates, want 1", got)
	}
	// Re-encoding writes the identity format, which decodes to the same set.
	again := roundTrip(t, env.catalog, meta).(snapMetaMsg)
	if !reflect.DeepEqual(again.Delivered, meta.(snapMetaMsg).Delivered) {
		t.Fatal("converted identities changed across a re-encode")
	}
	// A damaged sink-format meta fails to decode instead of yielding a
	// partial set.
	if _, err := DecodeMessage(wire.NewReader(raw[:len(raw)/2]), env.catalog); err == nil {
		t.Fatal("truncated sink-format meta accepted")
	}
}

// deliveredMetaBytesCeiling bounds the snapshot-meta bytes one delivered
// notification adds when no notification log is kept. The scenario's
// identities take 29 bytes each (query key, 18-byte content of two
// numbers, two publication times); the notification sink the meta used to
// carry took 51, so a sink, or anything else kept per delivery, breaks the
// ceiling.
const deliveredMetaBytesCeiling = 36

// Without KeepNotifications an engine keeps no notification log, and the
// snapshot grows only by the compact identity per delivery.
func TestRetainedStatePerDelivery(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI, Seed: 3})
	env.eng = New(env.net, env.catalog, Config{Algorithm: SAI, Seed: 3}) // keeps no notifications
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	metaBytes := func() int {
		meta, _ := env.eng.ExportSnapshot(nil)
		return MessageSize(meta)
	}
	before := metaBytes()
	for i := 0; i < 20; i++ {
		env.publish(t, i, rTuple(env, float64(i), 7, 0))
		env.publish(t, i+1, sTuple(env, float64(100+i), 7, 0))
	}
	delivered := env.eng.NotificationCount()
	if delivered < 400 {
		t.Fatalf("workload delivered %d notifications, want at least 400", delivered)
	}
	env.eng.mu.Lock()
	kept := len(env.eng.sink)
	env.eng.mu.Unlock()
	if kept != 0 || env.eng.Notifications() != nil {
		t.Fatalf("engine kept %d notifications without KeepNotifications", kept)
	}
	per := float64(metaBytes()-before) / float64(delivered)
	t.Logf("%d notifications, %.1f snapshot meta bytes each", delivered, per)
	if per > deliveredMetaBytesCeiling {
		t.Fatalf("snapshot meta grows %.1f bytes per delivered notification, ceiling %d", per, deliveredMetaBytesCeiling)
	}
}
