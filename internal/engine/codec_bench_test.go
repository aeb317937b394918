package engine

import (
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// codecFixture returns the first codec fixture of the given concrete type
// with its encoding.
func codecFixture[M chord.Message](tb testing.TB) (*relation.Catalog, chord.Message, []byte) {
	tb.Helper()
	catalog, msgs := codecFixtures(tb)
	for _, msg := range msgs {
		if _, ok := msg.(M); ok {
			var w wire.Buffer
			if err := EncodeMessage(&w, msg); err != nil {
				tb.Fatal(err)
			}
			return catalog, msg, w.Bytes()
		}
	}
	tb.Fatal("no fixture of the requested type")
	return nil, nil, nil
}

// codecBenchCases are the message kinds the codec benchmarks measure: the
// ones that dominate a SAI workload's traffic, plus a multi-way join.
var codecBenchCases = []struct {
	name    string
	fixture func(testing.TB) (*relation.Catalog, chord.Message, []byte)
}{
	{kindJoin, codecFixture[joinMsg]},
	{kindVLIndex, codecFixture[vlIndexMsg]},
	{kindNotify, codecFixture[notifyMsg]},
	{mJoinMsg{}.Kind(), codecFixture[mJoinMsg]},
}

// BenchmarkDecodeMessage measures decoding one message of each kind.
func BenchmarkDecodeMessage(b *testing.B) {
	for _, bc := range codecBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			catalog, _, frame := bc.fixture(b)
			var r wire.Reader
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(frame)
				if _, err := DecodeMessage(&r, catalog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeMessage measures encoding one message of each kind into a
// reused buffer, as the transport does.
func BenchmarkEncodeMessage(b *testing.B) {
	for _, bc := range codecBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			_, msg, _ := bc.fixture(b)
			var w wire.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				if err := EncodeMessage(&w, msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sizeSink keeps the compiler from discarding the measured MessageSize.
var sizeSink int

// BenchmarkMessageSize measures sizing one message of each kind, which
// the byte ledger does once per hop.
func BenchmarkMessageSize(b *testing.B) {
	for _, bc := range codecBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			_, msg, _ := bc.fixture(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sizeSink += MessageSize(msg)
			}
		})
	}
}

// TestMessageSizeAllocs pins sizing at zero allocations for every message
// type. The byte ledger sizes every hop, and a walk that passed its Codec
// through a func value or an interface method would move the Codec to the
// heap, costing one allocation per Size.
func TestMessageSizeAllocs(t *testing.T) {
	_, msgs := codecFixtures(t)
	for _, msg := range msgs {
		s := msg.(chord.Sizer)
		s.Size() // memoize the tuple and query sizes
		if got := testing.AllocsPerRun(100, func() { sizeSink += s.Size() + MessageSize(msg) }); got != 0 {
			t.Errorf("sizing a %T allocates %.0f times, want 0", msg, got)
		}
	}
}

// joinFrameAllocCeiling bounds the allocations of decoding the two-rewrite
// join fixture once its query text and tuple schemas are interned: 18 at
// the time of writing — per rewrite the rewritten struct, its key, want
// relation and attribute, the decoded query copy with its three identity
// strings, and the trigger tuple with its values. Re-parsing the SQL costs
// about 30 allocations per rewrite and rebuilding a schema about 5, so
// either regression blows the ceiling.
const joinFrameAllocCeiling = 24

// multiJoinFrameAllocCeiling bounds the allocations of decoding the
// one-rewrite multi-way join fixture once its query text is interned: 11
// at the time of writing. Re-parsing the chain query (and re-orienting the
// reversed pipeline) costs about 55 more.
const multiJoinFrameAllocCeiling = 16

func TestDecodeJoinFrameAllocs(t *testing.T) {
	assertDecodeAllocs[joinMsg](t, joinFrameAllocCeiling)
}

func TestDecodeMultiJoinFrameAllocs(t *testing.T) {
	assertDecodeAllocs[mJoinMsg](t, multiJoinFrameAllocCeiling)
}

// assertDecodeAllocs fails when decoding the fixture of type M allocates
// more than ceiling times once the intern tables are warm.
func assertDecodeAllocs[M chord.Message](t *testing.T, ceiling int) {
	t.Helper()
	catalog, _, frame := codecFixture[M](t)
	var r wire.Reader
	decode := func() {
		r.Reset(frame)
		if _, err := DecodeMessage(&r, catalog); err != nil {
			t.Fatal(err)
		}
	}
	decode() // populate the intern tables
	if got := testing.AllocsPerRun(100, decode); got > float64(ceiling) {
		t.Fatalf("decoding a %T frame allocates %.0f times, ceiling %d", *new(M), got, ceiling)
	}
}

// snapshotFixture runs a small SAI workload with stored rewrites and a
// notification sink, and returns the encoded snapshot as a checkpoint
// file holds it.
func snapshotFixture(tb testing.TB) (*relation.Catalog, []byte, [][]byte, []string) {
	tb.Helper()
	env := newTestEnv(tb, 32, Config{Algorithm: SAI, Seed: 3})
	sqls := []string{
		`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`,
		`SELECT R.A, S.F FROM R, S WHERE R.C = S.E AND S.F >= 1`,
		`SELECT R.B, S.D FROM R, S WHERE R.A = S.D`,
	}
	for i := 0; i < 24; i++ {
		env.subscribe(tb, i, sqls[i%len(sqls)])
	}
	for i := 0; i < 150; i++ {
		v := float64(i % 7)
		env.publish(tb, i, rTuple(env, float64(i), v, float64(i%5)))
		env.publish(tb, i+1, sTuple(env, float64(i%4), v, float64(i%3)))
	}
	meta, nodes := env.eng.ExportSnapshot(nil)
	enc := func(msg chord.Message) []byte {
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			tb.Fatal(err)
		}
		return w.Bytes()
	}
	var encNodes [][]byte
	var keys []string
	for _, ns := range nodes {
		encNodes = append(encNodes, enc(ns.Msg))
		keys = append(keys, ns.Key)
	}
	return env.catalog, enc(meta), encNodes, keys
}

// BenchmarkRestoreSnapshot measures recovering an engine from an encoded
// snapshot: decoding every section and merging it into a fresh overlay.
func BenchmarkRestoreSnapshot(b *testing.B) {
	catalog, meta, nodes, keys := snapshotFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := chord.New(chord.Config{})
		net.AddNodes("peer", 32)
		eng := New(net, catalog, Config{Algorithm: SAI, Seed: 3})
		b.StartTimer()

		m, err := DecodeMessage(wire.NewReader(meta), catalog)
		if err != nil {
			b.Fatal(err)
		}
		ns := make([]NodeSnapshot, len(nodes))
		for j, enc := range nodes {
			if ns[j].Msg, err = DecodeMessage(wire.NewReader(enc), catalog); err != nil {
				b.Fatal(err)
			}
			ns[j].Key = keys[j]
		}
		if err := eng.RestoreSnapshot(m, ns); err != nil {
			b.Fatal(err)
		}
	}
}
