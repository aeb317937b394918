package engine

import (
	"bytes"
	"os"
	"testing"

	"cqjoin/internal/wire"
)

// FuzzCodecRoundTrip throws arbitrary bytes at DecodeMessage. The
// contract: never panic, never allocate proportionally to a forged length
// prefix (the wire.Count guard), and every ACCEPTED message must
// re-encode to a stable canonical form — encode(decode(b)) decodes again
// and re-encodes to the identical bytes. The seed corpus is one valid
// encoding of every engine message type, plus a snapshot meta in the
// older sink format.
func FuzzCodecRoundTrip(f *testing.F) {
	catalog, msgs := codecFixtures(f)
	for _, msg := range msgs {
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			f.Fatalf("%T: seed encode: %v", msg, err)
		}
		f.Add(w.Bytes())
	}
	if legacy, err := os.ReadFile("testdata/snapmeta-sink.bin"); err == nil {
		f.Add(legacy) // snapshot meta in the older sink format
	}
	f.Add([]byte{})
	f.Add([]byte{byte(tagJoin), 0xff, 0xff, 0xff, 0xff, 0x0f}) // forged huge count
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(wire.NewReader(data), catalog)
		if err != nil {
			return // malformed input rejected cleanly: that is the point
		}
		var w1 wire.Buffer
		if err := EncodeMessage(&w1, msg); err != nil {
			t.Fatalf("accepted message fails to re-encode: %v", err)
		}
		msg2, err := DecodeMessage(wire.NewReader(w1.Bytes()), catalog)
		if err != nil {
			t.Fatalf("re-encoded bytes rejected: %v", err)
		}
		var w2 wire.Buffer
		if err := EncodeMessage(&w2, msg2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("encoding not canonical:\nfirst:  %x\nsecond: %x", w1.Bytes(), w2.Bytes())
		}
	})
}
